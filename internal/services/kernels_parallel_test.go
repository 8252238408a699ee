package services

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// workerSweep is the part counts the one implementation of each kernel is
// run at; parts = 1 is the sequential run the others must match.
var workerSweep = []int{1, 2, 4, 8}

// testPayload builds a deterministic pseudo-random payload with enough
// structure to produce detector hits and histogram variety.
func testPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		switch (i / 97) % 3 {
		case 0:
			data[i] = byte(rng.Intn(256)) // noise
		case 1:
			data[i] = byte(64 + rng.Intn(96)) // mid-band texture
		default:
			data[i] = 128 // flat background
		}
	}
	return data
}

// edgeSizes exercises shard and window boundaries: shorter than a
// window, exactly one window, a window plus a byte, non-multiples of the
// window, one shard, a shard boundary that would split a window if the
// sharding were byte-aligned, and multiple shards.
var edgeSizes = []int{1, 63, 64, 65, 127, 1000, 1 << 20, 1<<20 + 33, 3<<20 + 7}

func TestDetectFacesParallelMatchesSequential(t *testing.T) {
	for _, size := range edgeSizes {
		data := testPayload(int64(size), size)
		want, err := detectFaces(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep {
			got, err := detectFaces(data, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size=%d workers=%d: %d hits, want %d (first diff in order)",
					size, w, len(got), len(want))
			}
		}
	}
}

func TestDetectFacesShorterThanWindow(t *testing.T) {
	data := testPayload(7, detectWindow-1)
	hits, err := detectFaces(data, 1)
	if err != nil || len(hits) != 0 {
		t.Fatalf("sequential: hits=%v err=%v, want none", hits, err)
	}
	for _, w := range workerSweep {
		hits, err := detectFaces(data, w)
		if err != nil || len(hits) != 0 {
			t.Fatalf("workers=%d: hits=%v err=%v, want none", w, hits, err)
		}
	}
}

func TestDetectFacesParallelNeverSplitsWindows(t *testing.T) {
	// Every reported offset must be window-aligned and complete — a shard
	// boundary through a window would shift or drop offsets.
	data := testPayload(11, 2<<20+detectWindow/2)
	for _, w := range workerSweep {
		hits, err := detectFaces(data, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range hits {
			if off%detectWindow != 0 {
				t.Fatalf("workers=%d: unaligned hit at %d", w, off)
			}
			if off+detectWindow > len(data) {
				t.Fatalf("workers=%d: hit at %d overruns the payload", w, off)
			}
		}
	}
}

func TestHistogramParallelMatchesSequential(t *testing.T) {
	for _, size := range edgeSizes {
		data := testPayload(int64(size)+1, size)
		want := histogram(data, 1)
		for _, w := range workerSweep {
			if got := histogram(data, w); got != want {
				t.Fatalf("size=%d workers=%d: histogram mismatch", size, w)
			}
		}
	}
}

func TestRecognizeFaceParallelMatchesSequential(t *testing.T) {
	probe := testPayload(3, 1<<20)
	training := make([][]byte, 13)
	for i := range training {
		training[i] = testPayload(int64(100+i), 64<<10)
	}
	training[4] = nil                                // empty image is skipped
	training[7] = append([]byte{}, probe[:1<<15]...) // a close-ish match
	want, err := recognizeFace(probe, training, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep {
		got, err := recognizeFace(probe, training, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: match %d, want %d", w, got, want)
		}
	}
}

func TestRecognizeFaceTieKeepsLowestIndex(t *testing.T) {
	probe := testPayload(5, 32<<10)
	dup := append([]byte{}, probe...)
	training := [][]byte{testPayload(9, 32<<10), dup, dup, dup}
	want, err := recognizeFace(probe, training, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want != 1 {
		t.Fatalf("sequential tie break chose %d, want 1", want)
	}
	for _, w := range workerSweep {
		got, err := recognizeFace(probe, training, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: tie break chose %d, want %d", w, got, want)
		}
	}
}

func TestRecognizeFaceEmptyTrainingSet(t *testing.T) {
	probe := testPayload(1, 1024)
	if _, err := recognizeFace(probe, nil, 1); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Fatalf("sequential: err=%v, want ErrEmptyTrainingSet", err)
	}
	for _, w := range workerSweep {
		if _, err := recognizeFace(probe, nil, w); !errors.Is(err, ErrEmptyTrainingSet) {
			t.Fatalf("workers=%d: err=%v, want ErrEmptyTrainingSet", w, err)
		}
	}
	// All-empty images: usable-image error, identically in both paths.
	empty := [][]byte{nil, {}}
	if _, err := recognizeFace(probe, empty, 1); err == nil {
		t.Fatal("sequential accepted an all-empty training set")
	}
	if _, err := recognizeFace(probe, empty, 4); err == nil {
		t.Fatal("parallel accepted an all-empty training set")
	}
}

func TestConvertVideoParallelMatchesSequential(t *testing.T) {
	for _, size := range edgeSizes {
		data := testPayload(int64(size)+2, size)
		want, err := convertVideo(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep {
			got, err := convertVideo(data, w)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size=%d workers=%d: converted stream differs", size, w)
			}
		}
	}
}

func TestParallelKernelsEmptyInput(t *testing.T) {
	if _, err := detectFaces(nil, 4); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("fdet: %v", err)
	}
	if _, err := recognizeFace(nil, [][]byte{{1}}, 4); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("frec: %v", err)
	}
	if _, err := convertVideo(nil, 4); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("x264: %v", err)
	}
}
