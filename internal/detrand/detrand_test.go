package detrand

import (
	"math/rand"
	"sync"
	"testing"
)

func TestLazyAvailable(t *testing.T) {
	if !LazyAvailable() {
		t.Fatal("lazy engine failed its stdlib equivalence check on this runtime")
	}
}

// TestLazySourceMatchesStdlib drives the raw source well past the
// lagged-Fibonacci feedback boundary (draw 273) and the full period of
// the state vector for a spread of seeds, including the simulator's
// actual per-operation seed shape.
func TestLazySourceMatchesStdlib(t *testing.T) {
	seeds := []int64{1, 2, 0, -1, -12345, 89482311, int32max - 1, int32max, int32max + 1, 2011*1_000_003 + 42}
	for _, seed := range seeds {
		ref := rand.NewSource(seed)
		s := &lazySource{}
		s.Seed(seed)
		for i := 0; i < 3*rngLen; i++ {
			got, want := s.Int63(), ref.Int63()
			if got != want {
				t.Fatalf("seed %d draw %d: got %d want %d", seed, i, got, want)
			}
		}
	}
}

// checkPooledStreams compares Get's streams with math/rand over the Rand
// API surface the simulator uses (NormFloat64 goes through Uint32/Float64
// internally), including generator reuse across seeds.
func checkPooledStreams(t *testing.T) {
	t.Helper()
	for trial := 0; trial < 3; trial++ { // reuse pooled state across trials
		for _, seed := range []int64{7, -7, 2011*1_000_003 + 1, 1 << 40} {
			ref := rand.New(rand.NewSource(seed))
			r := Get(seed)
			for i := 0; i < 200; i++ {
				if got, want := r.NormFloat64(), ref.NormFloat64(); got != want {
					t.Fatalf("seed %d NormFloat64 draw %d: got %v want %v", seed, i, got, want)
				}
			}
			for i := 0; i < 700; i++ {
				if got, want := r.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d Int63 draw %d: got %v want %v", seed, i, got, want)
				}
			}
			Put(r)
		}
	}
}

func TestPooledRandMatchesStdlib(t *testing.T) {
	checkPooledStreams(t)
	r := Get(1)
	defer Put(r)
	if _, ok := r.src.(*lazySource); !ok {
		t.Fatalf("pool handed out %T, want the lazy source", r.src)
	}
}

// TestFallbackMatchesStdlib forces the startup self-check's verdict to
// "failed" and checks the safety net nothing selects any more: the pool
// then hands out stdlib sources, whose streams are still identical.
func TestFallbackMatchesStdlib(t *testing.T) {
	setupOnce.Do(setup)
	saved := lazyOK
	lazyOK = false
	pool = sync.Pool{New: newRand} // drop generators built before the verdict flipped
	t.Cleanup(func() {
		lazyOK = saved
		pool = sync.Pool{New: newRand}
	})
	checkPooledStreams(t)
	r := Get(1)
	defer Put(r)
	if _, ok := r.src.(*lazySource); ok {
		t.Fatal("pool handed out the lazy source after its self-check failed")
	}
}

func TestMulmod(t *testing.T) {
	// Against the reference Schrage implementation from math/rand.
	seedrand := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi := x / q
		lo := x % q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	x := int32(1)
	u := uint64(1)
	for i := 0; i < 10000; i++ {
		x = seedrand(x)
		u = mulmod(u, lcgA)
		if uint64(x) != u {
			t.Fatalf("step %d: schrage %d mulmod %d", i, x, u)
		}
	}
}

func BenchmarkSeedDraw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Get(int64(i))
		r.NormFloat64()
		Put(r)
	}
}

func BenchmarkSeedDrawStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		r.NormFloat64()
	}
}
