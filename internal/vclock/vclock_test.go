package vclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(5 * time.Second)
	})
	if got := v.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Now = %v, want epoch+5s", got)
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	if !v.Now().Equal(epoch) {
		t.Fatal("non-positive Sleep must not advance time")
	}
}

func TestVirtualConcurrentWorkersInterleave(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	v.Run(func() {
		var wg sync.WaitGroup
		wg.Add(2)
		v.Go(func() {
			defer wg.Done()
			v.Sleep(1 * time.Second)
			record("a1")
			v.Sleep(3 * time.Second) // wakes at t=4
			record("a2")
		})
		v.Go(func() {
			defer wg.Done()
			v.Sleep(2 * time.Second)
			record("b1")
			v.Sleep(5 * time.Second) // wakes at t=7
			record("b2")
		})
		v.Sleep(10 * time.Second)
		v.Block(wg.Wait)
	})
	want := []string{"a1", "b1", "a2", "b2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := v.Now(); !got.Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("final Now = %v, want epoch+10s", got)
	}
}

func TestVirtualEqualDeadlinesAllWake(t *testing.T) {
	v := NewVirtual(epoch)
	var n atomic.Int32
	v.Run(func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(time.Second)
				n.Add(1)
			})
		}
		v.Sleep(2 * time.Second)
		v.Block(wg.Wait)
	})
	if n.Load() != 8 {
		t.Fatalf("woke %d of 8 sleepers", n.Load())
	}
}

func TestVirtualDeterministic(t *testing.T) {
	run := func() time.Time {
		v := NewVirtual(epoch)
		v.Run(func() {
			var wg sync.WaitGroup
			for i := 1; i <= 5; i++ {
				wg.Add(1)
				d := time.Duration(i) * 100 * time.Millisecond
				v.Go(func() {
					defer wg.Done()
					for j := 0; j < 10; j++ {
						v.Sleep(d)
					}
				})
			}
			v.Block(wg.Wait)
		})
		return v.Now()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !got.Equal(first) {
			t.Fatalf("run %d finished at %v, first run at %v", i, got, first)
		}
	}
}

func TestVirtualTimeSkipsIdleGaps(t *testing.T) {
	v := NewVirtual(epoch)
	start := time.Now()
	v.Run(func() {
		v.Sleep(24 * time.Hour) // a day of virtual time...
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual day took %v of wall time", elapsed)
	}
	if !v.Now().Equal(epoch.Add(24 * time.Hour)) {
		t.Fatal("virtual day did not elapse")
	}
}

func TestRealClockMonotone(t *testing.T) {
	var c Real
	a := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("real clock did not advance across Sleep")
	}
	c.Sleep(-time.Hour) // must not block
}

func eventWorkload(t *testing.T, v *Virtual) []time.Duration {
	t.Helper()
	waits := make([]time.Duration, 4)
	v.Run(func() {
		ev := v.NewEvent()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			d := time.Duration(i+1) * 100 * time.Millisecond
			v.Go(func() {
				defer wg.Done()
				v.Sleep(d) // arrive staggered
				start := v.Now()
				ev.Wait()
				waits[int(d/(100*time.Millisecond))-1] = v.Now().Sub(start)
			})
		}
		v.Sleep(time.Second)
		ev.Fire()
		ev.Wait() // fired events do not block
		v.Block(wg.Wait)
	})
	return waits
}

// TestEventReleasesWaitersAtFireInstant: waiters arriving at t=100..400ms
// all resume at the fire instant t=1s, so each is charged exactly the
// virtual time it spent parked — the contract fetch coalescing relies on.
func TestEventReleasesWaitersAtFireInstant(t *testing.T) {
	waits := eventWorkload(t, NewVirtual(epoch))
	for i, w := range waits {
		want := time.Second - time.Duration(i+1)*100*time.Millisecond
		if w != want {
			t.Fatalf("waiter %d parked %v, want %v", i, w, want)
		}
	}
}

// wake is one entry of a wake transcript: which worker resumed, and when.
type wake struct {
	worker int
	at     time.Duration
}

// randomWakeWorkload drives W workers through seeded pseudo-random sleep
// sequences spanning six orders of magnitude (µs to tens of ms) and
// returns the wake transcript the clock produced next to the one a
// brute-force oracle predicts: the same sleeps kept in a plain slice and
// released one at a time by a linear scan for the (deadline, arrival seq)
// minimum. The driver sleeps 1 ns after starting each worker, and wakes
// only once that worker is parked, so first sleeps arrive in worker order
// (all of them before any worker's 1 µs minimum sleep ends); after that a
// worker's next sleep arrives the moment it wakes, which is exactly what
// the oracle replays.
func randomWakeWorkload(v *Virtual, seed int64, workers, rounds int) (got, want []wake) {
	rng := rand.New(rand.NewSource(seed))
	durs := make([][]time.Duration, workers)
	for w := range durs {
		durs[w] = make([]time.Duration, rounds)
		for j := range durs[w] {
			exp := time.Duration(1) << uint(rng.Intn(26)) // 1ns .. ~67ms steps
			durs[w][j] = time.Microsecond + exp
		}
	}

	type pending struct {
		worker, round int
		deadline      time.Duration
		seq           int
	}
	var parked []pending
	seq := 0
	for w := 0; w < workers; w++ {
		parked = append(parked, pending{w, 0, time.Duration(w) + durs[w][0], seq})
		seq++
	}
	for len(parked) > 0 {
		min := 0
		for i, p := range parked {
			if m := parked[min]; p.deadline < m.deadline || (p.deadline == m.deadline && p.seq < m.seq) {
				min = i
			}
		}
		p := parked[min]
		parked = append(parked[:min], parked[min+1:]...)
		want = append(want, wake{p.worker, p.deadline})
		if r := p.round + 1; r < rounds {
			parked = append(parked, pending{p.worker, r, p.deadline + durs[p.worker][r], seq})
			seq++
		}
	}

	var mu sync.Mutex
	start := v.Now()
	v.Run(func() {
		done := v.NewEvent()
		left := workers
		for w := 0; w < workers; w++ {
			w := w
			v.Go(func() {
				for _, d := range durs[w] {
					v.Sleep(d)
					mu.Lock()
					got = append(got, wake{w, v.Now().Sub(start)})
					mu.Unlock()
				}
				mu.Lock()
				left--
				last := left == 0
				mu.Unlock()
				if last {
					done.Fire()
				}
			})
			v.Sleep(time.Nanosecond)
		}
		done.Wait()
	})
	return got, want
}

// TestVirtualWakeOrderMatchesOracle: across random workloads the clock's
// complete wake transcript — who resumed, at what instant, in what order
// — equals the brute-force (deadline, arrival seq) oracle's, element for
// element.
func TestVirtualWakeOrderMatchesOracle(t *testing.T) {
	workers, rounds := 32, 40
	if testing.Short() {
		workers = 12
	}
	for seed := int64(1); seed <= 5; seed++ {
		got, want := randomWakeWorkload(NewVirtual(epoch), seed, workers, rounds)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d wakes, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: wake %d is %+v, oracle says %+v", seed, i, got[i], want[i])
			}
		}
	}
}
