package vclock

import (
	"fmt"
	"math/rand"
	"strings"
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
		g := NewGroup(v)
		g.Go(func() {
			v.Sleep(1 * time.Second)
			record("a1")
			v.Sleep(3 * time.Second) // wakes at t=4
			record("a2")
		})
		g.Go(func() {
			v.Sleep(2 * time.Second)
			record("b1")
			v.Sleep(5 * time.Second) // wakes at t=7
			record("b2")
		})
		v.Sleep(10 * time.Second)
		g.Wait()
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
		g := NewGroup(v)
		for i := 0; i < 8; i++ {
			g.Go(func() {
				v.Sleep(time.Second)
				n.Add(1)
			})
		}
		v.Sleep(2 * time.Second)
		g.Wait()
	})
	if n.Load() != 8 {
		t.Fatalf("woke %d of 8 sleepers", n.Load())
	}
}

func TestVirtualDeterministic(t *testing.T) {
	run := func() time.Time {
		v := NewVirtual(epoch)
		v.Run(func() {
			g := NewGroup(v)
			for i := 1; i <= 5; i++ {
				d := time.Duration(i) * 100 * time.Millisecond
				g.Go(func() {
					for j := 0; j < 10; j++ {
						v.Sleep(d)
					}
				})
			}
			g.Wait()
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

// TestRealClockMonotone: the paced clock's Now never goes back, across
// sleeps that wake late and posts that arrive between them.
func TestRealClockMonotone(t *testing.T) {
	v := NewPaced()
	var last time.Time
	check := func() {
		if now := v.Now(); now.Before(last) {
			t.Fatalf("Now went back from %v to %v", last, now)
		} else {
			last = now
		}
	}
	var stop chan struct{}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		v.Run(func() {
			check()
			stop = make(chan struct{})
			v.Go(func() {
				for i := 0; i < 20; i++ {
					v.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
					check()
				}
			})
			v.Block(func() { <-stop })
			check()
		})
	}()
	for i := 0; i < 20; i++ {
		v.Post(check)
		time.Sleep(50 * time.Microsecond)
	}
	v.Post(func() { close(stop) })
	<-stopped
	v.Sleep(-time.Hour) // must not block
}

// servePaced drives v from a goroutine of its own, with a root that waits
// for the returned stop function, so the test can post to it.
func servePaced(t *testing.T, v *Virtual) (stop func()) {
	t.Helper()
	quit, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		v.Run(func() { v.Block(func() { <-quit }) })
	}()
	return func() {
		close(quit)
		<-stopped
	}
}

// TestPacedNeverEarly: on a paced clock every wake, of sleepers of
// several lengths, comes no sooner on the wall clock than the virtual
// time that has passed.
func TestPacedNeverEarly(t *testing.T) {
	v := NewPaced()
	start := v.Now()
	var early []string
	v.Run(func() {
		g := NewGroup(v)
		for a := 1; a <= 4; a++ {
			g.Go(func() {
				for i := 0; i < 25; i++ {
					v.Sleep(time.Duration(a*(i%4+1)) * 50 * time.Microsecond)
					if wall, virt := time.Since(start), v.Now().Sub(start); wall < virt && len(early) < 5 {
						early = append(early, fmt.Sprintf("actor %d woke at wall %v, virtual %v", a, wall, virt))
					}
				}
			})
		}
		g.Wait()
	})
	for _, e := range early {
		t.Error(e)
	}
}

// TestPacedLatenessDoesNotAddUp: 200 sleeps of 100 µs end at absolute
// deadlines, so they take their 20 ms sum plus one wake's lateness,
// where 200 idle time.Sleeps of 100 µs take about 200 ms on a 2-core box.
func TestPacedLatenessDoesNotAddUp(t *testing.T) {
	const n, d = 200, 100 * time.Microsecond
	v := NewPaced()
	t0 := time.Now()
	v.Run(func() {
		for i := 0; i < n; i++ {
			v.Sleep(d)
		}
	})
	if took, bound := time.Since(t0), n*d+50*time.Millisecond; took > bound {
		t.Fatalf("%d sleeps of %v took %v of wall time, want <= %v", n, d, took, bound)
	}
	if got := v.Now().Sub(v.epoch); got < n*d {
		t.Fatalf("virtual time advanced %v, want >= %v", got, n*d)
	}
}

// TestPacedPostAfterIdleStartsAtArrival: a post made after 20 ms with
// nothing due starts at the wall instant it arrived, not at the instant
// the clock last ran, so its own sleep is served in full.
func TestPacedPostAfterIdleStartsAtArrival(t *testing.T) {
	v := NewPaced()
	stop := servePaced(t, v)
	defer stop()
	time.Sleep(20 * time.Millisecond)
	posted := time.Now()
	type seen struct{ start, woke, wokeWall time.Time }
	got := make(chan seen, 1)
	v.Post(func() {
		var s seen
		s.start = v.Now()
		v.Sleep(5 * time.Millisecond)
		s.woke, s.wokeWall = v.Now(), time.Now()
		got <- s
	})
	s := <-got
	if s.start.Before(posted) {
		t.Fatalf("posted actor started at %v, %v before it was posted", s.start, posted.Sub(s.start))
	}
	if s.start.Sub(posted) > 10*time.Millisecond {
		t.Fatalf("posted actor started %v after it was posted", s.start.Sub(posted))
	}
	if s.woke.Sub(s.start) != 5*time.Millisecond || s.wokeWall.Sub(posted) < 5*time.Millisecond {
		t.Fatalf("5 ms sleep: virtual %v, wall %v since the post", s.woke.Sub(s.start), s.wokeWall.Sub(posted))
	}
}

// TestPacedConcurrentPosts: 8 goroutines post 100 actors each. Every one
// runs; they bump a plain counter with no lock, which -race accepts only
// because no two actors run at once; and each goroutine's posts run in
// the order it made them.
func TestPacedConcurrentPosts(t *testing.T) {
	const posters, posts = 8, 100
	v := NewPaced()
	stop := servePaced(t, v)
	ran := 0
	var last [posters]int
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= posts; i++ {
				v.Post(func() {
					if last[p] != i-1 {
						panic(fmt.Sprintf("poster %d: post %d ran after post %d", p, i, last[p]))
					}
					last[p] = i
					ran++
				})
			}
		}()
	}
	wg.Wait()
	var total int
	v.Post(func() { total = ran })
	stop()
	if total != posters*posts {
		t.Fatalf("%d posts ran, want %d", total, posters*posts)
	}
}

// TestPostOnUnpacedPanics: the unpaced clock takes no posts; its schedule
// is only what its actors make.
func TestPostOnUnpacedPanics(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "unpaced") {
			t.Fatalf("recovered %q, want the unpaced panic", r)
		}
	}()
	NewVirtual(epoch).Post(func() {})
}

func eventWorkload(t *testing.T, v *Virtual) []time.Duration {
	t.Helper()
	waits := make([]time.Duration, 4)
	v.Run(func() {
		ev := v.NewEvent()
		g := NewGroup(v)
		for i := 0; i < 4; i++ {
			d := time.Duration(i+1) * 100 * time.Millisecond
			g.Go(func() {
				v.Sleep(d) // arrive staggered
				start := v.Now()
				ev.Wait()
				waits[int(d/(100*time.Millisecond))-1] = v.Now().Sub(start)
			})
		}
		v.Sleep(time.Second)
		ev.Fire()
		ev.Wait() // fired events do not block
		g.Wait()
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

// TestSpawnedActorsRunInSpawnOrder: actors spawned at one instant run one
// at a time, in spawn order, and keep that order at every later instant
// they share. They append to a plain slice with no lock, which -race
// accepts only because no two of them ever run at once.
func TestSpawnedActorsRunInSpawnOrder(t *testing.T) {
	const actors, rounds = 16, 4
	v := NewVirtual(epoch)
	var order []int
	v.Run(func() {
		done := v.NewEvent()
		left := actors
		for a := 0; a < actors; a++ {
			v.Go(func() {
				for r := 0; r < rounds; r++ {
					order = append(order, a)
					v.Sleep(time.Millisecond)
				}
				if left--; left == 0 {
					done.Fire()
				}
			})
		}
		done.Wait()
	})
	if len(order) != actors*rounds {
		t.Fatalf("%d appends, want %d", len(order), actors*rounds)
	}
	for i, a := range order {
		if a != i%actors {
			t.Fatalf("append %d by actor %d, want %d: %v", i, a, i%actors, order)
		}
	}
}

// TestBlockFromRunReturnsAtLastFinisher: the end-of-run join in Run's fn,
// Block(wg.Wait), resumes at the instant the last actor finishes, even
// though Run's fn blocked long before.
func TestBlockFromRunReturnsAtLastFinisher(t *testing.T) {
	v := NewVirtual(epoch)
	var joined time.Time
	v.Run(func() {
		var wg sync.WaitGroup
		for i := 1; i <= 5; i++ {
			d := time.Duration(i) * time.Second
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(d)
			})
		}
		v.Block(wg.Wait)
		joined = v.Now()
	})
	if want := epoch.Add(5 * time.Second); !joined.Equal(want) {
		t.Fatalf("Block(wg.Wait) returned at %v, want %v", joined, want)
	}
}

// TestBlockInActorDoesNotStallOthers: while one actor waits inside Block
// on a channel, the others keep sleeping through virtual time, and the
// one that closes the channel releases the blocked actor at its instant.
func TestBlockInActorDoesNotStallOthers(t *testing.T) {
	v := NewVirtual(epoch)
	var released time.Time
	ticks := 0
	v.Run(func() {
		ch := make(chan struct{})
		blocked, ticker := v.NewEvent(), v.NewEvent()
		v.Go(func() {
			v.Block(func() { <-ch })
			released = v.Now()
			blocked.Fire()
		})
		v.Go(func() {
			for ; ticks < 10; ticks++ {
				v.Sleep(time.Second)
			}
			close(ch)
			ticker.Fire()
		})
		ticker.Wait()
		blocked.Wait()
	})
	if ticks != 10 {
		t.Fatalf("ticker slept %d times, want 10", ticks)
	}
	if want := epoch.Add(10 * time.Second); !released.Equal(want) {
		t.Fatalf("blocked actor resumed at %v, want %v", released, want)
	}
}

// TestGoPanicSurfacesFromRun: a panic in a spawned actor is re-raised by
// Run, on the goroutine that called it.
func TestGoPanicSurfacesFromRun(t *testing.T) {
	v := NewVirtual(epoch)
	defer func() {
		if r := recover(); r != "actor failed" {
			t.Fatalf("recovered %v, want the actor's panic", r)
		}
	}()
	v.Run(func() {
		v.Go(func() {
			v.Sleep(time.Second)
			panic("actor failed")
		})
		v.Sleep(time.Hour)
	})
	t.Fatal("Run returned normally")
}

// TestGroupWaitIdleDoesNotYield: Wait on a virtual Group with nothing
// running keeps the turn, so an actor filed at the same instant has not
// run yet — before any spawn, and again once the group has drained.
func TestGroupWaitIdleDoesNotYield(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		g := NewGroup(v)
		ran := false
		v.Go(func() { ran = true })
		g.Wait()
		if ran {
			t.Fatal("Wait on an empty group yielded to a same-instant actor")
		}
		g.Go(func() { v.Sleep(time.Second) })
		g.Wait()
		if !ran {
			t.Fatal("Wait on a running group did not yield")
		}
		ran = false
		v.Go(func() { ran = true })
		g.Wait()
		if ran {
			t.Fatal("Wait on a drained group yielded to a same-instant actor")
		}
	})
}

// TestGroupWaitResumesAtLastFinisher: the waiter resumes at the instant
// the last member returns, filed after every actor already due then —
// here a bystander outside the group that sleeps to the same instant —
// so the join takes its (deadline, seq) place in the schedule.
func TestGroupWaitResumesAtLastFinisher(t *testing.T) {
	v := NewVirtual(epoch)
	var order []string
	var joined time.Time
	v.Run(func() {
		g := NewGroup(v)
		for i := 1; i <= 3; i++ {
			g.Go(func() {
				v.Sleep(time.Duration(i) * time.Second)
				order = append(order, fmt.Sprintf("w%d", i))
			})
		}
		v.Go(func() {
			v.Sleep(3 * time.Second)
			order = append(order, "bystander")
		})
		g.Wait()
		joined = v.Now()
		order = append(order, "join")
	})
	if want := epoch.Add(3 * time.Second); !joined.Equal(want) {
		t.Fatalf("Wait returned at %v, want %v", joined, want)
	}
	if got, want := fmt.Sprint(order), "[w1 w2 w3 bystander join]"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestBlockReturnsWhileTickerKeepsHeapBusy: an actor inside Block is
// filed again although another actor keeps something due at every turn
// boundary and always wakes itself. A Run that waited for the Block
// helper only when nothing was due, or a Sleep that kept the turn while
// an actor is inside Block, would resume the blocked actor only once the
// ticker gives up after 10 s of wall time.
func TestBlockReturnsWhileTickerKeepsHeapBusy(t *testing.T) {
	v := NewVirtual(epoch)
	gaveUp := false
	v.Run(func() {
		ch := make(chan struct{})
		stop := false
		g := NewGroup(v)
		g.Go(func() {
			start := time.Now()
			for ticks := 0; !stop; ticks++ {
				if ticks == 100 {
					close(ch)
				}
				if gaveUp = time.Since(start) > 10*time.Second; gaveUp {
					return
				}
				v.Sleep(time.Second)
			}
		})
		v.Block(func() { <-ch })
		stop = true
		g.Wait()
	})
	if gaveUp {
		t.Fatal("the blocked actor resumed only after the ticker stopped")
	}
}

// TestDeadlockPanics: Run reports a schedule where every actor waits on
// an Event nobody can fire, also when the waiter is a Group join.
func TestDeadlockPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(v *Virtual)
	}{
		{"event", func(v *Virtual) { v.NewEvent().Wait() }},
		{"group", func(v *Virtual) {
			g := NewGroup(v)
			never := v.NewEvent()
			g.Go(never.Wait)
			g.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVirtual(epoch)
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "vclock: deadlock") {
					t.Fatalf("recovered %q, want the deadlock panic", r)
				}
			}()
			v.Run(func() { tc.fn(v) })
			t.Fatal("Run returned normally")
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
