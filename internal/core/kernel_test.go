package core

import (
	"bytes"
	"testing"

	"cloud4home/internal/services"
)

// openKernels sums, over the home's nodes, the kernels started and not
// yet joined.
func openKernels(h *Home) int64 {
	var open int64
	for _, n := range h.Nodes() {
		open += int64(n.kernels)
	}
	return open
}

// TestKernelJoinedOnEveryExit: a kernel starts at dispatch and runs on a
// goroutine of its own, so every way out of an op that started one must
// join it — an exec that fails after the kernel started, a kernel that
// fails, and (below) a speculative hedge cancelled mid-op.
func TestKernelJoinedOnEveryExit(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		_, data, err := tb.desktop.store.GetRef(names[ModeOwner])
		if err != nil {
			t.Error(err)
			return
		}
		// The exec fails after the dispatch sleep, with the kernel running:
		// a target that left the home, a cloud instance never launched.
		for _, target := range []string{"gone:9000", CloudServiceAddr + "never-launched"} {
			if _, err := tb.desktop.runService(target, services.X264Convert(), int64(len(data)), data); err == nil {
				t.Errorf("runService at %s succeeded", target)
			}
			if open := openKernels(tb.home); open != 0 {
				t.Errorf("exec error at %s: %d kernels left open", target, open)
			}
		}

		// The kernel fails: every training image is empty.
		for _, n := range tb.home.Nodes() {
			n.SetTrainingSet([][]byte{nil, {}})
		}
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		for _, mode := range []ProcessMode{ModeOwner, ModeDecided} {
			if _, err := sess.FetchProcess(names[mode], "frec", services.FaceRecognizeID); err == nil {
				t.Errorf("%v: frec on an all-empty training set succeeded", mode)
			}
			if open := openKernels(tb.home); open != 0 {
				t.Errorf("%v: kernel error left %d kernels open", mode, open)
			}
		}
	})
}

// TestCancelledHedgeJoinsItsKernel hedges a decided fdet on a real 1 MB
// image over two equal desktops: the loser is cancelled at a phase
// boundary, and by the time the requester has flushed it, its kernel has
// been joined too.
func TestCancelledHedgeJoinsItsKernel(t *testing.T) {
	tb := newCPTestbed(t, Config{Workers: 8, Speculation: true})
	tb.run(func() {
		for _, n := range []*Node{tb.d1, tb.d2} {
			if err := n.DeployService(services.FaceDetect(), "performance"); err != nil {
				t.Error(err)
				return
			}
		}
		tb.publish()
		image := bytes.Repeat([]byte{1, 200, 3, 90}, 1<<18)
		owner, err := tb.netbook.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer owner.Close()
		if _, err := owner.StoreObjectData("img.bin", "image", image, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		res, err := sess.Process("img.bin", "fdet", services.FaceDetectID)
		if err != nil || !bytes.Equal(res.Output, image) {
			t.Errorf("hedged fdet: err %v, output intact %v", err, bytes.Equal(res.Output, image))
			return
		}
		tb.atom.Flush()
		if st := tb.atom.OpStats(); st.SpecLaunches != 1 || st.SpecCancels != 1 {
			t.Errorf("SpecLaunches %d, SpecCancels %d: want one hedge, cancelled", st.SpecLaunches, st.SpecCancels)
		}
		if open := openKernels(tb.home); open != 0 {
			t.Errorf("cancelled hedge left %d kernels open", open)
		}
	})
}

// frecSet is a training set of eight 32 KB images in which only the one
// at match resembles the probe; the rest are flat.
func frecSet(probe []byte, match int) [][]byte {
	set := make([][]byte, 8)
	for i := range set {
		set[i] = bytes.Repeat([]byte{byte(i * 30)}, 32<<10)
	}
	set[match] = bytes.Clone(probe[:32<<10])
	return set
}

// TestSwappedTrainingSetChangesMatch: a SetTrainingSet between two frec
// calls drops the counted set, so the second call answers from the new
// images — at the owner and at the requester alike.
func TestSwappedTrainingSetChangesMatch(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		_, image, err := tb.desktop.store.GetRef(names[ModeOwner])
		if err != nil {
			t.Error(err)
			return
		}
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		for _, match := range []int{3, 6, 3} {
			set := frecSet(image, match)
			want, err := services.RecognizeFace(image, set)
			if err != nil || want != match {
				t.Errorf("reference: match %d (err %v), want %d", want, err, match)
				return
			}
			for _, n := range tb.home.Nodes() {
				n.SetTrainingSet(set)
			}
			for _, mode := range []ProcessMode{ModeOwner, ModeDecided} {
				res, err := sess.FetchProcess(names[mode], "frec", services.FaceRecognizeID)
				if err != nil || res.MatchID != want {
					t.Errorf("%v after installing set %d: MatchID %d (err %v), want %d", mode, match, res.MatchID, err, want)
				}
			}
		}
	})
}

// TestFrecCountsTrainingSetOnce: SetTrainingSet only installs the images;
// the first frec counts them, and later ones score against that count.
func TestFrecCountsTrainingSetOnce(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		installed := tb.desktop.training.Load() // the owner's set
		if installed.scorer != nil {
			t.Error("SetTrainingSet counted the images")
		}
		var first *services.TrainingSet
		for i := 0; i < 4; i++ {
			if _, err := sess.FetchProcess(names[ModeOwner], "frec", services.FaceRecognizeID); err != nil {
				t.Error(err)
				return
			}
			if tb.desktop.training.Load() != installed {
				t.Fatal("frec replaced the installed set")
			}
			if i == 0 {
				first = installed.scorer
			}
			if installed.scorer == nil || installed.scorer != first {
				t.Errorf("frec %d counted the training set again", i+1)
			}
		}
	})
}
