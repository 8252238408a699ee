package vclock

import (
	"fmt"
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

// step is one operation of a worker's script: sleep for d, or, with
// d == 0, wait on event ev, or fire it when fire is set.
type step struct {
	d    time.Duration
	ev   int
	fire bool
}

// scriptedWakeWorkload runs one worker per script on v and returns the
// wake transcript the clock produced — a wake after every Sleep and
// every Event.Wait — next to the one a brute-force oracle predicts: the
// same parked workers kept in a plain slice and released one at a time
// by a linear scan for the (deadline, arrival seq) minimum, with Fire
// enqueuing an event's waiters at the current instant in arrival order.
// The driver sleeps 1 ns after starting each worker, and wakes only once
// that worker is parked, so first steps (which must be sleeps of at
// least 1 µs) arrive in worker order before any of them ends; after that
// exactly one worker runs at a time, which is what the oracle replays.
// Every event a script waits on must be fired by some script.
func scriptedWakeWorkload(v *Virtual, scripts [][]step, events int) (got, want []wake) {
	type pending struct {
		worker, pc int
		deadline   time.Duration
		seq        int
	}
	var parked []pending
	seq := 0
	park := func(w, pc int, deadline time.Duration) {
		parked = append(parked, pending{w, pc, deadline, seq})
		seq++
	}
	fired := make([]bool, events)
	waiting := make([][]pending, events)
	for w, sc := range scripts {
		park(w, 1, time.Duration(w)+sc[0].d)
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
		now, w := p.deadline, p.worker
		want = append(want, wake{w, now})
	run:
		for pc := p.pc; pc < len(scripts[w]); pc++ {
			switch st := scripts[w][pc]; {
			case st.d > 0:
				park(w, pc+1, now+st.d)
				break run
			case st.fire:
				if !fired[st.ev] {
					fired[st.ev] = true
					for _, q := range waiting[st.ev] {
						park(q.worker, q.pc, now)
					}
				}
			case fired[st.ev]:
				want = append(want, wake{w, now})
			default:
				waiting[st.ev] = append(waiting[st.ev], pending{worker: w, pc: pc + 1})
				break run
			}
		}
	}

	var mu sync.Mutex
	start := v.Now()
	evs := make([]*Event, events)
	for i := range evs {
		evs[i] = v.NewEvent()
	}
	record := func(w int) {
		mu.Lock()
		got = append(got, wake{w, v.Now().Sub(start)})
		mu.Unlock()
	}
	v.Run(func() {
		done := v.NewEvent()
		left := len(scripts)
		for w, sc := range scripts {
			w, sc := w, sc
			v.Go(func() {
				for _, st := range sc {
					switch {
					case st.d > 0:
						v.Sleep(st.d)
						record(w)
					case st.fire:
						evs[st.ev].Fire()
					default:
						evs[st.ev].Wait()
						record(w)
					}
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

// sleepScripts draws workers × rounds sleeps from dur. With align set,
// worker w's first sleep is lengthened by (workers - w) ns, so every
// worker starts on the same instant and sleeps drawn from a coarse grid
// collide.
func sleepScripts(workers, rounds int, align bool, dur func() time.Duration) [][]step {
	scripts := make([][]step, workers)
	for w := range scripts {
		for j := 0; j < rounds; j++ {
			scripts[w] = append(scripts[w], step{d: dur()})
		}
		if align {
			scripts[w][0].d += time.Duration(workers - w)
		}
	}
	return scripts
}

// eventScripts mixes Event waits into tie-heavy sleeps: worker 0 fires
// events 0..events-1 in order, one per 1 or 2 µs, while every other
// worker, on the same grid, waits on an event about a third of the time
// (the next one it has not yet waited on), so waiters released by a
// Fire share their instant with sleepers due then, and some waits find
// their event already fired.
func eventScripts(rng *rand.Rand, workers, rounds, events int) [][]step {
	grid := func() time.Duration { return time.Duration(1+rng.Intn(2)) * time.Microsecond }
	scripts := sleepScripts(workers, 1, true, grid)
	for e := 0; e < events; e++ {
		scripts[0] = append(scripts[0], step{ev: e, fire: true}, step{d: grid()})
	}
	for w := 1; w < workers; w++ {
		next := 0
		for j := 0; j < rounds; j++ {
			if next < events && rng.Intn(3) == 0 {
				scripts[w] = append(scripts[w], step{ev: next})
				next++
			} else {
				scripts[w] = append(scripts[w], step{d: grid()})
			}
		}
	}
	return scripts
}

// TestVirtualWakeOrderMatchesOracle: across random workloads the clock's
// complete wake transcript — who resumed, at what instant, in what order
// — equals the brute-force (deadline, arrival seq) oracle's, element for
// element. "octaves" draws sleeps from 26 octaves (1 ns to ~67 ms on top
// of 1 µs), where ties are rare; "ties" draws every sleep from {1 µs,
// 2 µs} with all workers aligned; "events" mixes Event waiters with
// sleepers at the same instants; "alone" is one worker, which after its
// first sleep always wakes itself.
func TestVirtualWakeOrderMatchesOracle(t *testing.T) {
	workers, rounds := 32, 40
	if testing.Short() {
		workers = 12
	}
	cases := []struct {
		name    string
		events  int
		scripts func(rng *rand.Rand) [][]step
	}{
		{"octaves", 0, func(rng *rand.Rand) [][]step {
			return sleepScripts(workers, rounds, false, func() time.Duration {
				return time.Microsecond + time.Duration(1)<<uint(rng.Intn(26))
			})
		}},
		{"ties", 0, func(rng *rand.Rand) [][]step {
			return sleepScripts(workers, rounds, true, func() time.Duration {
				return time.Duration(1+rng.Intn(2)) * time.Microsecond
			})
		}},
		{"events", rounds / 2, func(rng *rand.Rand) [][]step {
			return eventScripts(rng, workers, rounds, rounds/2)
		}},
		{"alone", 0, func(rng *rand.Rand) [][]step {
			return sleepScripts(1, 20*rounds, false, func() time.Duration {
				return time.Microsecond + time.Duration(1)<<uint(rng.Intn(26))
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				scripts := tc.scripts(rand.New(rand.NewSource(seed)))
				got, want := scriptedWakeWorkload(NewVirtual(epoch), scripts, tc.events)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d wakes, want %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: wake %d is %+v, oracle says %+v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// BenchmarkSleep is c4h-perf's vclock.sleep probe at 1, 6 and 64 actors:
// actor a sleeps (a+1) ms in a loop, so a lone actor always wakes itself
// and with several every sleep hands the processor to another actor.
// One op is one Sleep.
func BenchmarkSleep(b *testing.B) {
	for _, actors := range []int{1, 6, 64} {
		b.Run(fmt.Sprintf("actors=%d", actors), func(b *testing.B) {
			per := (b.N + actors - 1) / actors
			v := NewVirtual(epoch)
			b.ReportAllocs()
			b.ResetTimer()
			v.Run(func() {
				done := v.NewEvent()
				var left atomic.Int32
				left.Store(int32(actors))
				for a := 0; a < actors; a++ {
					d := time.Duration(a+1) * time.Millisecond
					v.Go(func() {
						for i := 0; i < per; i++ {
							v.Sleep(d)
						}
						if left.Add(-1) == 0 {
							done.Fire()
						}
					})
				}
				done.Wait()
			})
		})
	}
}
