package services

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// The reference kernels: the bodies DetectFaces, Histogram, RecognizeFace
// and ConvertVideo had before they became exact-integer, split
// implementations, moved here verbatim (only the names changed). The
// benchmark harness's "sequential reference call" runs the production
// kernels, so these are the only independent statement of what the
// kernels must compute; TestKernelsMatchReference and
// FuzzKernelsMatchReference hold the production code to them.

func refDetectHit(data []byte, off int) bool {
	w := data[off : off+detectWindow]
	var sum, sumSq float64
	for _, b := range w {
		v := float64(b)
		sum += v
		sumSq += v * v
	}
	mean := sum / detectWindow
	variance := sumSq/detectWindow - mean*mean
	// Mid-band variance: neither flat background nor pure noise.
	return variance >= 1000 && variance <= 4200
}

func refDetectFaces(data []byte) ([]int, error) {
	if len(data) == 0 {
		return nil, ErrEmptyInput
	}
	var hits []int
	for off := 0; off+detectWindow <= len(data); off += detectWindow {
		if refDetectHit(data, off) {
			hits = append(hits, off)
		}
	}
	return hits, nil
}

func refHistogram(data []byte) [256]int {
	var h [256]int
	for _, b := range data {
		h[b]++
	}
	return h
}

func refRecognizeFace(probe []byte, training [][]byte) (int, error) {
	if len(probe) == 0 {
		return 0, ErrEmptyInput
	}
	if len(training) == 0 {
		return 0, ErrEmptyTrainingSet
	}
	ph := refHistogram(probe)
	// Normalise by length so images of different sizes compare fairly.
	best, bestDist := -1, 0.0
	for i, img := range training {
		if len(img) == 0 {
			continue
		}
		th := refHistogram(img)
		var dist float64
		for b := 0; b < 256; b++ {
			d := float64(ph[b])/float64(len(probe)) - float64(th[b])/float64(len(img))
			if d < 0 {
				d = -d
			}
			dist += d
		}
		if best == -1 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	if best == -1 {
		return 0, errNoUsableTraining
	}
	return best, nil
}

func refConvertVideo(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]byte, 0, len(data)/2+8)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(data)))
	out = append(out, hdr[:]...)
	prev := byte(0)
	for i := 0; i < len(data); i += 2 {
		cur := data[i]
		out = append(out, cur-prev)
		prev = cur
	}
	return out, nil
}

// partSweep is the part counts every equivalence check runs at: the
// sequential run, even and odd splits, more parts than cores, and more
// parts than most inputs have grains.
var partSweep = []int{1, 2, 3, 7, 64}

// kernelResults is what the four kernels, and frec against an installed
// TrainingSet, make of one input.
type kernelResults struct {
	hits         []int
	faces        int
	hist         [256]int
	best         int
	installed    int
	out          []byte
	hitsErr      error
	facesErr     error
	bestErr      error
	installedErr error
	outErr       error
}

func refKernels(data []byte, training [][]byte) (r kernelResults) {
	r.hits, r.hitsErr = refDetectFaces(data)
	r.faces, r.facesErr = len(r.hits), r.hitsErr
	r.hist = refHistogram(data)
	r.best, r.bestErr = refRecognizeFace(data, training)
	r.installed, r.installedErr = r.best, r.bestErr
	r.out, r.outErr = refConvertVideo(data)
	return r
}

// splitKernels runs the kernels at a part count; ts is the training set
// installed once from training, which frec also scores the probe against.
func splitKernels(data []byte, training [][]byte, ts *TrainingSet, parts int) (r kernelResults) {
	r.hits, r.hitsErr = detectFaces(data, parts)
	r.faces, r.facesErr = countFaces(data, parts)
	r.hist = histogram(data, parts)
	r.best, r.bestErr = recognizeFace(data, training, parts)
	r.installed, r.installedErr = ts.recognize(data, parts)
	r.out, r.outErr = convertVideo(data, parts)
	return r
}

// mustEqual fails the test unless got is, byte for byte and error for
// error, the reference results want.
func (want kernelResults) mustEqual(t *testing.T, got kernelResults, n int, parts string) {
	t.Helper()
	if !reflect.DeepEqual(got.hits, want.hits) || !errors.Is(got.hitsErr, want.hitsErr) {
		t.Fatalf("len=%d parts=%s: fdet %d hits (err %v), reference %d (err %v)",
			n, parts, len(got.hits), got.hitsErr, len(want.hits), want.hitsErr)
	}
	if got.faces != want.faces || !errors.Is(got.facesErr, want.facesErr) {
		t.Fatalf("len=%d parts=%s: fdet counts %d faces (err %v), reference %d (err %v)",
			n, parts, got.faces, got.facesErr, want.faces, want.facesErr)
	}
	if got.hist != want.hist {
		t.Fatalf("len=%d parts=%s: histogram differs from the reference", n, parts)
	}
	if got.best != want.best || !errors.Is(got.bestErr, want.bestErr) {
		t.Fatalf("len=%d parts=%s: frec match %d (err %v), reference %d (err %v)",
			n, parts, got.best, got.bestErr, want.best, want.bestErr)
	}
	if got.installed != want.installed || !errors.Is(got.installedErr, want.installedErr) {
		t.Fatalf("len=%d parts=%s: frec on the installed set matches %d (err %v), reference %d (err %v)",
			n, parts, got.installed, got.installedErr, want.installed, want.installedErr)
	}
	if !bytes.Equal(got.out, want.out) || (got.out == nil) != (want.out == nil) || !errors.Is(got.outErr, want.outErr) {
		t.Fatalf("len=%d parts=%s: x264 stream differs from the reference (err %v, reference %v)",
			n, parts, got.outErr, want.outErr)
	}
}

// checkKernels holds all four kernels, at every part count and through
// their exported wrappers, to the reference results for one input.
func checkKernels(t *testing.T, data []byte, training [][]byte) {
	t.Helper()
	want := refKernels(data, training)
	ts := NewTrainingSet(training)
	for _, p := range partSweep {
		want.mustEqual(t, splitKernels(data, training, newTrainingSet(training, p), p), len(data), strconv.Itoa(p))
		want.mustEqual(t, splitKernels(data, training, ts, p), len(data), strconv.Itoa(p)+"/installed")
	}
	var host kernelResults
	host.hits, host.hitsErr = DetectFaces(data)
	host.faces, host.facesErr = CountFaces(data)
	host.hist = Histogram(data)
	host.best, host.bestErr = RecognizeFace(data, training)
	host.installed, host.installedErr = ts.Recognize(data)
	host.out, host.outErr = ConvertVideo(data)
	want.mustEqual(t, host, len(data), "host")
}

// windowImage fills n bytes the way the benchmark's synthImage does:
// 64-byte windows that are flat (amp 8), textured (amp 128, inside the
// detector's band) or noisy (amp 192); class < 0 mixes the three.
func windowImage(rng *rand.Rand, n, class int) []byte {
	amps := []int{8, 128, 192}
	img := make([]byte, n)
	for off := 0; off < n; off += detectWindow {
		amp := amps[rng.Intn(3)]
		if class >= 0 {
			amp = amps[class]
		}
		base := rng.Intn(64)
		for i := off; i < off+detectWindow && i < n; i++ {
			img[i] = byte(base + rng.Intn(256)*amp>>8)
		}
	}
	return img
}

// edgeWindow builds one detection window from (count, value) runs and
// returns it with 64·Σb² − (Σb)², which is 4096 × its variance exactly.
func edgeWindow(runs ...[2]int) ([]byte, int) {
	var w []byte
	sum, sq := 0, 0
	for _, r := range runs {
		for i := 0; i < r[0]; i++ {
			w = append(w, byte(r[1]))
			sum, sq = sum+r[1], sq+r[1]*r[1]
		}
	}
	return w, detectWindow*sq - sum*sum
}

func testTraining(rng *rand.Rand) [][]byte {
	training := make([][]byte, 6)
	for i := range training {
		training[i] = windowImage(rng, 4<<10+rng.Intn(4<<10), -1)
	}
	training[2] = nil // an empty image is skipped
	training[4] = append([]byte(nil), training[1]...)
	return training
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	training := testTraining(rng)

	// Every length up to two windows and a bit, on noise.
	for n := 0; n <= 130; n++ {
		data := make([]byte, n)
		rng.Read(data)
		checkKernels(t, data, training)
	}
	// Lengths around every boundary a split can fall on: the grain the
	// wrappers size parts by, a word of the detector's bitmap (64 windows),
	// and an even share of each swept part count.
	total := 3*splitGrain + 17
	lengths := map[int]bool{}
	for _, base := range []int{splitGrain, 2 * splitGrain, 64 * detectWindow, 128 * detectWindow, total} {
		for d := -2; d <= 2; d++ {
			lengths[base+d] = true
		}
	}
	for _, p := range partSweep {
		for d := -1; d <= 1; d++ {
			lengths[total/p*p+d] = true
			lengths[(total/detectWindow/p)*p*detectWindow+d] = true
		}
	}
	for n := range lengths {
		checkKernels(t, windowImage(rng, n, -1), training)
	}
	// The three window classes on their own, and the two constant images.
	for class := 0; class < 3; class++ {
		checkKernels(t, windowImage(rng, 5*splitGrain+33, class), training)
	}
	checkKernels(t, make([]byte, 2*splitGrain+1), training)
	checkKernels(t, bytes.Repeat([]byte{255}, 2*splitGrain+1), training)
	// No training set, and one with no usable image.
	checkKernels(t, windowImage(rng, 1000, -1), nil)
	checkKernels(t, windowImage(rng, 1000, -1), [][]byte{nil, {}})
}

// TestDetectHitOnVarianceEdges puts windows exactly on, and one step to
// either side of, the 1000 and 4200 variance bounds — where an integer
// sum that was not bit-identical to the float chain would first show.
func TestDetectHitOnVarianceEdges(t *testing.T) {
	low, lowV := edgeWindow([2]int{2, 0}, [2]int{2, 100}, [2]int{60, 170})
	high, highV := edgeWindow([2]int{1, 80}, [2]int{5, 240}, [2]int{58, 0})
	if lowV != 1000*4096 || highV != 4200*4096 {
		t.Fatalf("edge windows have variance×4096 = %d and %d, want %d and %d", lowV, highV, 1000*4096, 4200*4096)
	}
	if !detectHit(low) || !detectHit(high) {
		t.Fatal("the band is inclusive: a window exactly on an edge is a hit")
	}
	rng := rand.New(rand.NewSource(4200))
	var img []byte
	for _, w := range [][]byte{low, high} {
		img = append(img, w...)
		// Every single-byte ±1 step away from the edge, in shuffled order
		// within the window (the sums do not depend on byte order).
		for i := range w {
			for _, d := range []int{-1, 1} {
				if v := int(w[i]) + d; v >= 0 && v <= 255 {
					near := append([]byte(nil), w...)
					near[i] = byte(v)
					rng.Shuffle(len(near), func(a, b int) { near[a], near[b] = near[b], near[a] })
					if detectHit(near) != refDetectHit(near, 0) {
						t.Fatalf("window %v: integer and float verdicts differ", near)
					}
					img = append(img, near...)
				}
			}
		}
	}
	checkKernels(t, img, testTraining(rng))
}

// TestPairTabPacking checks every entry of detectHit's byte-pair table
// and the headroom its packing relies on: a window's Σb² stays below the
// sum field, so the accumulator's two fields never mix, and the band
// constants are the variance bounds times 4096.
func TestPairTabPacking(t *testing.T) {
	const sqMask = 1<<pairSumBits - 1
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			e := pairTab[a|b<<8]
			if sq, sum := int(e&sqMask), int(e>>pairSumBits); sq != a*a+b*b || sum != a+b {
				t.Fatalf("pairTab[%d,%d] decodes to (%d, %d), want (%d, %d)", a, b, sq, sum, a*a+b*b, a+b)
			}
		}
	}
	// The largest window, 64 bytes of 255, has Σb² = 4 161 600 < 2²².
	const maxSq, maxSum = detectWindow * 255 * 255, detectWindow * 255
	if maxSq >= 1<<pairSumBits {
		t.Fatalf("the largest Σb², %d, does not fit the %d-bit field", maxSq, pairSumBits)
	}
	var acc uint64
	for i := 0; i < detectWindow/2; i++ {
		acc += uint64(pairTab[0xFFFF])
	}
	if sq, sum := acc&sqMask, acc>>pairSumBits; sq != maxSq || sum != maxSum {
		t.Fatalf("a window of 255s accumulates Σb² = %d, Σb = %d, want %d and %d", sq, sum, maxSq, maxSum)
	}
	if bandLo != 4096*1000 || bandHi != 4096*4200 {
		t.Fatalf("band constants %d and %d, want %d and %d", bandLo, bandHi, 4096*1000, 4096*4200)
	}
}

// FuzzKernelsMatchReference feeds arbitrary payloads (and a part count)
// to all four kernels, and to frec against a training set installed once
// for the whole run, and holds them to their references; fdet's count is
// held to its hit list's length at every swept part count too. The seed corpus
// under testdata/fuzz holds the window classes, the variance-edge windows
// and the lengths around x264's eight-byte steps at a few part counts.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{0, 255}, 200), uint8(3))
	training := testTraining(rand.New(rand.NewSource(1)))
	ts := NewTrainingSet(training)
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		p := int(parts%64) + 1
		want := refKernels(data, training)
		want.mustEqual(t, splitKernels(data, training, ts, p), len(data), strconv.Itoa(p))
		// fdet's count is the length of its hit list at every part count.
		for _, q := range partSweep {
			if n, err := countFaces(data, q); n != want.faces || !errors.Is(err, want.facesErr) {
				t.Fatalf("len=%d parts=%d: CountFaces %d (err %v), len(DetectFaces) %d (err %v)",
					len(data), q, n, err, want.faces, want.facesErr)
			}
		}
	})
}
