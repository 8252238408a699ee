// Package detrand provides pooled deterministic random generators that
// are bit-identical to math/rand's default source. The simulator draws a
// fresh seeded stream per network operation so concurrent goroutines
// cannot perturb each other's jitter; with the stock library that costs a
// ~5 KB state allocation plus an O(607) reseed (three multiplicative LCG
// steps and a table XOR per state word) on every operation — it was 42 %
// of the simulator's host CPU.
//
// Two levers remove that cost without changing a single drawn value:
//
//   - Pooling: generator state is recycled through a sync.Pool, so the
//     per-operation allocation disappears.
//   - Lazy seeding: the additive lagged-Fibonacci state vec[i] that Seed
//     builds eagerly is a pure function of (seed, i) — three values of
//     the seeding LCG x_{n+1} = 48271·x_n mod 2³¹−1 XORed with a fixed
//     cooked table. Because the LCG is a modular multiplication,
//     x_p = x_0·48271^p, so any state word materialises in O(1) from a
//     precomputed power table. Operations that draw a handful of values
//     (a message charges one jitter sample) touch a handful of state
//     words instead of seeding all 607.
//
// The cooked table is recovered once, at first use, from the runtime's
// own generator state and the reimplementation is verified against
// math/rand across the feedback boundary; if either step fails on some
// future runtime, the pool hands out stdlib sources instead, which are
// trivially bit-identical and merely pay the reseed.
package detrand

import (
	"math/rand"
	"reflect"
	"sync"
	"unsafe"
)

const (
	rngLen   = 607
	rngTap   = 273
	int32max = (1 << 31) - 1
	lcgA     = 48271
	// Seed consumes LCG positions 1..3·rngLen+20; the power table covers
	// every exponent a lazily materialised word can ask for.
	lcgPositions = 3*rngLen + 21
)

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹ using Mersenne folding —
// the product fits uint64 and hi·2³¹+lo ≡ hi+lo (mod 2³¹−1), so two
// folds and one conditional subtraction replace a hardware division.
func mulmod(a, b uint64) uint64 {
	v := a * b
	r := (v & int32max) + (v >> 31)
	r = (r & int32max) + (r >> 31)
	if r >= int32max {
		r -= int32max
	}
	return r
}

// normSeed applies math/rand's seed normalisation.
func normSeed(seed int64) uint64 {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

var (
	setupOnce sync.Once
	lazyOK    bool
	cooked    [rngLen]int64
	powA      [lcgPositions]uint64
)

// extractCooked recovers math/rand's seeding table from a live source:
// seed a stdlib generator, replay the seeding LCG ourselves, and XOR the
// known LCG contribution back out of each state word. Reflection guards
// the (long-stable) layout; any surprise degrades to the stdlib fallback.
func extractCooked() bool {
	src := rand.NewSource(1)
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	f := v.Elem().FieldByName("vec")
	if !f.IsValid() || f.Kind() != reflect.Array || f.Len() != rngLen ||
		f.Type().Elem().Kind() != reflect.Int64 || !f.CanAddr() {
		return false
	}
	vec := (*[rngLen]int64)(unsafe.Pointer(f.UnsafeAddr()))
	x := uint64(1) // rand.NewSource(1): normalised seed is 1
	for i := -20; i < rngLen; i++ {
		x = mulmod(x, lcgA)
		if i >= 0 {
			u := x << 40
			x = mulmod(x, lcgA)
			u ^= x << 20
			x = mulmod(x, lcgA)
			u ^= x
			cooked[i] = int64(u ^ uint64(vec[i]))
		}
	}
	return true
}

func setup() {
	if !extractCooked() {
		return
	}
	powA[0] = 1
	for p := 1; p < lcgPositions; p++ {
		powA[p] = mulmod(powA[p-1], lcgA)
	}
	lazyOK = verify()
}

// verify cross-checks the lazy source against math/rand far enough past
// the lagged-Fibonacci feedback boundary (draw 273 reads a word written
// by draw 0) and across a reseed.
func verify() bool {
	seeds := []int64{1, 0, -7, 89482311, int32max, int32max + 5, 2011*1_000_003 + 1, -1 << 40}
	s := &lazySource{}
	for _, seed := range seeds {
		ref := rand.NewSource(seed)
		s.Seed(seed)
		for i := 0; i < rngLen*2+11; i++ {
			if s.Int63() != ref.Int63() {
				return false
			}
		}
	}
	return true
}

// lazySource is the drop-in rngSource whose state words materialise on
// first touch. mat carries a per-seed epoch so reseeding is O(1): stale
// words are simply from an older epoch.
type lazySource struct {
	x0        uint64
	tap, feed int
	epoch     uint32
	mat       [rngLen]uint32
	vec       [rngLen]int64
}

var _ rand.Source = (*lazySource)(nil)

func (s *lazySource) Seed(seed int64) {
	s.x0 = normSeed(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: invalidate everything the slow way
		for i := range s.mat {
			s.mat[i] = 0
		}
		s.epoch = 1
	}
}

// ensure materialises state word i for the current seed: the three LCG
// values Seed would have produced at positions 3i+21..3i+23, XORed with
// the cooked table.
//
// c4h:hotpath
func (s *lazySource) ensure(i int) {
	if s.mat[i] != s.epoch {
		x1 := mulmod(s.x0, powA[3*i+21])
		x2 := mulmod(x1, lcgA)
		x3 := mulmod(x2, lcgA)
		s.vec[i] = int64(x1<<40 ^ x2<<20 ^ x3 ^ uint64(cooked[i]))
		s.mat[i] = s.epoch
	}
}

// Uint64 is math/rand's additive lagged-Fibonacci step over the lazy
// state. A word written by feedback is marked materialised, so later
// reads see the fed-back value exactly as the eager generator would.
//
// c4h:hotpath
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	s.ensure(s.tap)
	s.ensure(s.feed)
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
//
// c4h:hotpath
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Rand is a pooled generator. It embeds *rand.Rand, so callers use the
// full distribution API (NormFloat64, ...) and every drawn value is
// bit-identical to rand.New(rand.NewSource(seed)).
type Rand struct {
	*rand.Rand
	src rand.Source
}

// pool recycles generators. Which source backs a new one is decided once,
// by the startup self-check: the lazy source when it reproduced math/rand,
// a stdlib source otherwise.
var pool = sync.Pool{New: newRand}

func newRand() any {
	setupOnce.Do(setup)
	var src rand.Source = &lazySource{}
	if !lazyOK {
		src = rand.NewSource(0)
	}
	return &Rand{Rand: rand.New(src), src: src}
}

// Get returns a pooled generator seeded with seed; its stream is the one
// rand.New(rand.NewSource(seed)) would produce. Pair with Put.
//
// c4h:hotpath
func Get(seed int64) *Rand {
	r := pool.Get().(*Rand)
	r.src.Seed(seed)
	return r
}

// Put recycles a generator obtained from Get.
//
// c4h:hotpath
func Put(r *Rand) {
	if r != nil {
		pool.Put(r)
	}
}

// LazyAvailable reports whether the lazy engine passed its startup
// equivalence check on this runtime (exposed for tests and diagnostics).
func LazyAvailable() bool {
	setupOnce.Do(setup)
	return lazyOK
}
