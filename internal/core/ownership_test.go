package core

import (
	"bytes"
	"sync/atomic"
	"testing"

	"cloud4home/internal/policy"
	"cloud4home/internal/services"
)

// scribble overwrites every byte of a slice the application was handed
// (with a constant, so that no number of scribbles restores the bytes).
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// TestNoSessionExitAliasesAStore is the application-side half of the
// payload-ownership rule: core passes borrows of the stores' own bytes
// around — the cloud bucket's included — so every slice a Session returns
// must be a copy. Each exit's result is overwritten in full, and the
// stored image must read back intact afterwards — from the store itself
// and through a fresh fetch.
func TestNoSessionExitAliasesAStore(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		if err := tb.atom.DeployService(services.FaceDetect(), ""); err != nil {
			t.Error(err)
			return
		}
		tb.publish()
		// The atom hosts fdet (requester case) and nothing else; the
		// netbook hosts nothing, so its requests run at the owner or are
		// decided.
		atom, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer atom.Close()
		netbook, err := tb.netbook.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer netbook.Close()
		desktop, err := tb.desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer desktop.Close()

		owned, elsewhere := names[ModeOwner], names[ModeDecided] // on the desktop, on the netbook
		_, want, err := tb.desktop.store.Get(owned)
		if err != nil {
			t.Error(err)
			return
		}
		// A third copy lives in the cloud bucket only.
		const clouded = "clouded.jpg"
		if _, err := desktop.StoreObjectData(clouded, "image", want,
			StoreOptions{Blocking: true, Policy: policy.SizeThreshold{RemoteBytes: 1}}); err != nil {
			t.Error(err)
			return
		}
		intact := func(exit string) {
			t.Helper()
			for name, holder := range map[string]*Node{owned: tb.desktop, elsewhere: tb.netbook} {
				if _, ref, err := holder.store.GetRef(name); err != nil || !bytes.Equal(ref, want) {
					t.Errorf("%s: writing the result changed %s in %s's store (err %v)", exit, name, holder.addr, err)
				}
			}
			if _, ref, _, err := tb.cloud.FetchObject(tb.desktop.nic, clouded); err != nil || !bytes.Equal(ref, want) {
				t.Errorf("%s: writing the result changed %s in the cloud bucket (err %v)", exit, clouded, err)
			}
			for _, name := range []string{owned, elsewhere, clouded} {
				fr, err := desktop.FetchObject(name)
				if err != nil || !bytes.Equal(fr.Data, want) {
					t.Errorf("%s: %s no longer fetches as stored (err %v)", exit, name, err)
				}
			}
		}
		process := func(exit string, wantMode ProcessMode, run func() (ProcessResult, error)) {
			t.Helper()
			res, err := run()
			if err != nil || res.Mode != wantMode {
				t.Errorf("%s: mode %v (want %v), err %v", exit, res.Mode, wantMode, err)
				return
			}
			if res.Output == nil {
				t.Errorf("%s: no materialised output", exit)
			}
			scribble(res.Output)
			intact(exit)
		}

		for _, sess := range []*Session{desktop, atom} { // local bin, then over the LAN
			fr, err := sess.FetchObject(owned)
			if err != nil {
				t.Error(err)
				return
			}
			scribble(fr.Data)
			intact("FetchObject at " + sess.node.addr)
		}
		fr, err := atom.FetchObject(clouded)
		if err != nil || fr.Source == tb.desktop.addr || fr.Source == tb.netbook.addr {
			t.Errorf("FetchObject of %s came from %q (err %v), want the cloud", clouded, fr.Source, err)
			return
		}
		scribble(fr.Data)
		intact("FetchObject from the cloud")
		for _, spec := range services.Builtin() {
			if spec.Name == "fdet" {
				process("FetchProcess fdet requester", ModeRequester, func() (ProcessResult, error) {
					return atom.FetchProcess(owned, spec.Name, spec.ID)
				})
				// fdet's output is its input: here, a borrow of the bucket.
				process("FetchProcess fdet requester, cloud input", ModeRequester, func() (ProcessResult, error) {
					return atom.FetchProcess(clouded, spec.Name, spec.ID)
				})
			}
			process("FetchProcess "+spec.Name+" decided, cloud input", ModeDecided, func() (ProcessResult, error) {
				return netbook.FetchProcess(clouded, spec.Name, spec.ID)
			})
			process("FetchProcess "+spec.Name+" owner", ModeOwner, func() (ProcessResult, error) {
				return netbook.FetchProcess(owned, spec.Name, spec.ID)
			})
			process("FetchProcess "+spec.Name+" decided", ModeDecided, func() (ProcessResult, error) {
				return netbook.FetchProcess(elsewhere, spec.Name, spec.ID)
			})
			process("Process "+spec.Name, ModeDecided, func() (ProcessResult, error) {
				return netbook.Process(owned, spec.Name, spec.ID)
			})
			process("ProcessAt "+spec.Name, ModeDecided, func() (ProcessResult, error) {
				return netbook.ProcessAt(elsewhere, spec.Name, spec.ID, tb.desktop.addr)
			})
		}
		process("ProcessPipelineAt fdet→frec", ModeDecided, func() (ProcessResult, error) {
			return netbook.ProcessPipelineAt(elsewhere, []string{"fdet", "frec"},
				[]uint32{services.FaceDetectID, services.FaceRecognizeID}, tb.desktop.addr)
		})
	})
}

// TestBorrowOutlivesOverwriteAndDelete is the store-side half: a borrow
// taken before the object is replaced and then deleted keeps the bytes it
// was taken with, because the memory backend installs a fresh slice on
// every write and only drops its reference on delete.
func TestBorrowOutlivesOverwriteAndDelete(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		name := names[ModeOwner]
		obj, want, err := tb.desktop.store.Get(name)
		if err != nil {
			t.Error(err)
			return
		}
		_, borrow, err := tb.desktop.store.GetRef(name)
		if err != nil {
			t.Error(err)
			return
		}
		if err := tb.desktop.store.Replace(obj, bytes.Repeat([]byte{7}, len(want))); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(borrow, want) {
			t.Error("Replace wrote through a held borrow")
		}
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		if err := sess.DeleteObject(name); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := tb.desktop.store.GetRef(name); err == nil {
			t.Error("object still in the store after DeleteObject")
		}
		if !bytes.Equal(borrow, want) {
			t.Error("DeleteObject changed a held borrow")
		}
	})
}

// TestConcurrentFetchProcessSharesOneBorrow runs two clients processing
// the same stored image at once and writing all over what they get back;
// under -race this is what would catch a kernel or an exit writing to the
// shared borrow.
func TestConcurrentFetchProcessSharesOneBorrow(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		_, want, err := tb.desktop.store.Get(names[ModeOwner])
		if err != nil {
			t.Error(err)
			return
		}
		// The last client to finish fires the join while still registered
		// with the clock (never Block(wg.Wait) on a virtual clock).
		done := tb.v.NewEvent()
		clients := []*Node{tb.atom, tb.netbook}
		var left atomic.Int32
		left.Store(int32(len(clients)))
		for _, n := range clients {
			tb.v.Go(func() {
				defer func() {
					if left.Add(-1) == 0 {
						done.Fire()
					}
				}()
				sess, err := n.OpenSession()
				if err != nil {
					t.Error(err)
					return
				}
				defer sess.Close()
				for round := 0; round < 3; round++ {
					for _, spec := range services.Builtin() {
						res, err := sess.FetchProcess(names[ModeOwner], spec.Name, spec.ID)
						if err != nil {
							t.Error(err)
							return
						}
						scribble(res.Output)
					}
				}
			})
		}
		done.Wait()
		if _, ref, err := tb.desktop.store.GetRef(names[ModeOwner]); err != nil || !bytes.Equal(ref, want) {
			t.Errorf("stored image changed under concurrent FetchProcess (err %v)", err)
		}
	})
}
