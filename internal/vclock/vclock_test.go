package vclock

import (
	"fmt"
	"math/rand"
	"slices"
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
// sleeps that wake late and deliveries that arrive between them.
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
	in := NewInbox[bool](v)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		v.Run(func() {
			check()
			v.Go(func() {
				for i := 0; i < 20; i++ {
					v.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
					check()
				}
			})
			for in.Receive() {
				check()
			}
		})
	}()
	for i := 0; i < 20; i++ {
		in.Deliver(true)
		time.Sleep(50 * time.Microsecond)
	}
	in.Deliver(false)
	<-stopped
	v.Sleep(-time.Hour) // must not block
}

// servePaced drives v from a goroutine of its own, with a root resident
// that runs each function delivered to the returned inbox until a nil
// one, which stop delivers.
func servePaced(t *testing.T, v *Virtual) (in *Inbox[func()], stop func()) {
	t.Helper()
	in = NewInbox[func()](v)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		v.Run(func() {
			for fn := in.Receive(); fn != nil; fn = in.Receive() {
				fn()
			}
		})
	}()
	return in, func() {
		in.Deliver(nil)
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

// TestPacedDeliveryAfterIdleStartsAtArrival: a delivery made after 20 ms
// with nothing due is received at the wall instant it arrived, not at the
// instant the clock last ran, so the sleep it asks for is served in full.
func TestPacedDeliveryAfterIdleStartsAtArrival(t *testing.T) {
	v := NewPaced()
	in, stop := servePaced(t, v)
	defer stop()
	time.Sleep(20 * time.Millisecond)
	posted := time.Now()
	type seen struct{ start, woke, wokeWall time.Time }
	got := make(chan seen, 1)
	in.Deliver(func() {
		var s seen
		s.start = v.Now()
		v.Sleep(5 * time.Millisecond)
		s.woke, s.wokeWall = v.Now(), time.Now()
		got <- s
	})
	s := <-got
	if s.start.Before(posted) {
		t.Fatalf("delivery received at %v, %v before it was delivered", s.start, posted.Sub(s.start))
	}
	if s.start.Sub(posted) > 10*time.Millisecond {
		t.Fatalf("delivery received %v after it was delivered", s.start.Sub(posted))
	}
	if s.woke.Sub(s.start) != 5*time.Millisecond || s.wokeWall.Sub(posted) < 5*time.Millisecond {
		t.Fatalf("5 ms sleep: virtual %v, wall %v since the delivery", s.woke.Sub(s.start), s.wokeWall.Sub(posted))
	}
}

// TestPacedConcurrentDeliveries: 8 goroutines deliver 100 functions each
// to one resident. Every one runs; they bump a plain counter with no lock,
// which -race accepts only because the resident runs on the clock; and
// each goroutine's deliveries run in the order it made them.
func TestPacedConcurrentDeliveries(t *testing.T) {
	const posters, posts = 8, 100
	v := NewPaced()
	in, stop := servePaced(t, v)
	ran := 0
	var last [posters]int
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= posts; i++ {
				in.Deliver(func() {
					if last[p] != i-1 {
						panic(fmt.Sprintf("goroutine %d: delivery %d ran after delivery %d", p, i, last[p]))
					}
					last[p] = i
					ran++
				})
			}
		}()
	}
	wg.Wait()
	var total int
	in.Deliver(func() { total = ran })
	stop()
	if total != posters*posts {
		t.Fatalf("%d deliveries ran, want %d", total, posters*posts)
	}
}

// TestPacedWakesOnTime: a host goroutine delivers 50 sleeps of 300 µs to
// a resident, one after another, and waits for each. The median of wall
// time minus modeled time stays within 300 µs, where a wait on the Go
// timer alone, which wakes on the netpoller's whole milliseconds, is about
// 0.8 ms late. The clock's vital counts the wakes.
func TestPacedWakesOnTime(t *testing.T) {
	const n, d = 50, 300 * time.Microsecond
	v := NewPaced()
	in, stop := servePaced(t, v)
	done := make(chan struct{})
	sleep := func() {
		v.Sleep(d)
		done <- struct{}{}
	}
	late := make([]time.Duration, n)
	for i := range late {
		t0 := time.Now()
		in.Deliver(sleep)
		<-done
		late[i] = time.Since(t0) - d
	}
	stop()
	slices.Sort(late)
	if fineWait > 0 && late[n/2] > 300*time.Microsecond {
		t.Errorf("median reply to a %v sleep %v late (fastest %v, slowest %v), want <= 300µs", d, late[n/2], late[0], late[n-1])
	}
	// A sleep whose deadline passed before it was asked for waits on
	// nothing, so under load a few sleeps make no wake.
	if v.Wakes == 0 || v.Wakes > n || v.LateMax < v.LateSum/time.Duration(v.Wakes) {
		t.Errorf("vital: %d wakes, %v late in all, %v at most; want 1 to %d wakes", v.Wakes, v.LateSum, v.LateMax, n)
	}
}

// TestPacedDeliveryDuringFineWaitFiledAtArrival: a delivery made while Run
// sleeps the last fineWait before a deadline waits for the sleep to end,
// and is then filed at the instant it was made: received at that instant
// and, since it was made before the deadline, before the actor whose
// deadline it was.
func TestPacedDeliveryDuringFineWaitFiledAtArrival(t *testing.T) {
	if fineWait == 0 {
		t.Skip("no fine sleep on this system")
	}
	v := NewPaced()
	in, stop := servePaced(t, v)
	defer stop()
	wallOf := func(at time.Time) time.Time { return v.origin.Add(at.Sub(v.epoch)) }
	// A host goroutine or a Run that stalls can miss the window in which
	// Run sleeps; the attempt then checks nothing and is made again.
	for attempt := 0; attempt < 20; attempt++ {
		var order []string
		var deadline, asleep, received time.Time
		var tooLate bool
		sleeping := make(chan struct{})
		in.Deliver(func() {
			v.Go(func() {
				deadline, asleep = v.Now().Add(fineWait), time.Now()
				close(sleeping)
				// Run sleeps to deadline once this Sleep yields, which it
				// does unless deadline has passed.
				tooLate = wallOf(deadline).Sub(time.Now()) < fineWait/2
				v.Sleep(fineWait)
				order = append(order, "sleeper")
			})
		})
		<-sleeping
		for time.Since(asleep) < fineWait/8 {
		}
		posted := time.Now()
		in.Deliver(func() {
			received = v.Now()
			order = append(order, "delivery")
		})
		returned := time.Now()
		got := make(chan struct{})
		in.Deliver(func() { v.Sleep(fineWait); close(got) })
		<-got
		if tooLate || wallOf(deadline).Sub(posted) < fineWait/2 {
			continue
		}
		if deadlineWall := wallOf(deadline); returned.Before(deadlineWall) {
			t.Fatalf("Deliver returned %v before the deadline Run slept to", deadlineWall.Sub(returned))
		}
		if at := wallOf(received); at.Before(posted) || !received.Before(deadline) {
			t.Fatalf("delivery made %v before the deadline received %v before it", wallOf(deadline).Sub(posted), deadline.Sub(received))
		}
		if want := []string{"delivery", "sleeper"}; !slices.Equal(order, want) {
			t.Fatalf("order %v, want %v", order, want)
		}
		return
	}
	t.Skip("the host goroutine never delivered within the fine sleep")
}

// TestDeliverOnUnpacedPanics: the unpaced clock takes no deliveries from
// host goroutines; its schedule is only what its actors make.
func TestDeliverOnUnpacedPanics(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "unpaced") {
			t.Fatalf("recovered %q, want the unpaced panic", r)
		}
	}()
	NewInbox[int](NewVirtual(epoch)).Deliver(1)
}

// The tests below pin Pace, which c4hd calls once its home is built
// unpaced, just before it listens.

// TestPaceUnpacedSleepsWaitOnNoTimer: before Pace a clock is unpaced, so
// a day of virtual sleeps, taken on a clock that Pace turns paced
// afterwards, costs no wall time.
func TestPaceUnpacedSleepsWaitOnNoTimer(t *testing.T) {
	v := NewVirtual(epoch)
	start := time.Now()
	v.Run(func() {
		for i := 0; i < 24; i++ {
			v.Sleep(time.Hour)
		}
		v.Pace()
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("a virtual day before Pace took %v of wall time", elapsed)
	}
	if got := v.Now().Sub(epoch); got != 24*time.Hour {
		t.Fatalf("virtual time advanced %v, want 24h", got)
	}
}

// TestPaceNowMonotonic: Pace keeps the epoch, so Now reads the same
// instant just before and just after it, and a paced sleep carries on
// from there.
func TestPaceNowMonotonic(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(time.Hour)
		before := v.Now()
		v.Pace()
		if after := v.Now(); !after.Equal(before) {
			t.Fatalf("Pace moved Now from %v to %v", before, after)
		}
		v.Sleep(time.Millisecond)
		if got := v.Now().Sub(before); got != time.Millisecond {
			t.Fatalf("a 1 ms paced sleep moved Now %v", got)
		}
	})
}

// TestPaceKeepsPeriod: a periodic actor started before Pace ticks at
// the same virtual instants either side of it, and after Pace no tick
// comes sooner on the wall clock than its virtual distance from Pace.
func TestPaceKeepsPeriod(t *testing.T) {
	const period = 2 * time.Millisecond
	v := NewVirtual(epoch)
	type tick struct {
		virt time.Duration
		wall time.Time
	}
	var ticks []tick
	var paced time.Duration
	var pacedWall time.Time
	stop := false
	v.Run(func() {
		v.Go(func() {
			for !stop {
				v.Sleep(period)
				ticks = append(ticks, tick{v.Now().Sub(epoch), time.Now()})
			}
		})
		v.Sleep(5 * time.Millisecond)
		paced, pacedWall = v.Now().Sub(epoch), time.Now()
		v.Pace()
		v.Sleep(20 * time.Millisecond)
		stop = true
	})
	if len(ticks) != 12 {
		t.Fatalf("%d ticks in 25 ms of virtual time, want 12", len(ticks))
	}
	for i, tk := range ticks {
		if want := time.Duration(i+1) * period; tk.virt != want {
			t.Fatalf("tick %d at %v, want %v", i, tk.virt, want)
		}
		if tk.virt > paced && tk.wall.Sub(pacedWall) < tk.virt-paced {
			t.Fatalf("tick %d came %v after Pace on the wall clock, %v in virtual time", i, tk.wall.Sub(pacedWall), tk.virt-paced)
		}
	}
}

// TestPacedSleepTakesWallTime: after Pace a Sleep(d) takes at least d of
// wall time, however far set-up ran virtual time ahead first. It is
// measured from the wall instant Pace mapped the current instant to, the
// clock's own reading, not from a second one near it.
func TestPacedSleepTakesWallTime(t *testing.T) {
	const d = 5 * time.Millisecond
	v := NewVirtual(epoch)
	var took time.Duration
	v.Run(func() {
		v.Sleep(time.Hour)
		v.Pace()
		t0 := v.origin.Add(v.Now().Sub(epoch))
		v.Sleep(d)
		took = time.Since(t0)
	})
	if took < d {
		t.Fatalf("a %v sleep after Pace took %v of wall time", d, took)
	}
}

// TestPacedDeliveryFiledAtArrival: a delivery made 20 ms after Pace is
// received 20 ms of virtual time after the instant Pace was called at,
// not at the instant virtual time had reached before it (which, after an
// hour of unpaced set-up, is far behind wall − epoch). Pace's instant on
// the wall clock is the one the clock maps it to.
func TestPacedDeliveryFiledAtArrival(t *testing.T) {
	v := NewVirtual(epoch)
	var paced, pacedWall time.Time
	v.Run(func() {
		v.Sleep(time.Hour)
		v.Pace()
		paced = v.Now()
		pacedWall = v.origin.Add(paced.Sub(epoch))
	})
	in, stop := servePaced(t, v)
	defer stop()
	time.Sleep(20 * time.Millisecond)
	posted := time.Now()
	started := make(chan time.Time, 1)
	in.Deliver(func() { started <- v.Now() })
	start := <-started
	if lo, got := posted.Sub(pacedWall), start.Sub(paced); got < lo || got > lo+10*time.Millisecond {
		t.Fatalf("delivery made %v after Pace received %v of virtual time after it", lo, got)
	}
}

// TestDeliverBeforePacePanics: a clock that Pace will pace takes no
// delivery from a host goroutine until it has, and one afterwards.
func TestDeliverBeforePacePanics(t *testing.T) {
	v := NewVirtual(epoch)
	func() {
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "unpaced") {
				t.Fatalf("recovered %q, want the unpaced panic", r)
			}
		}()
		NewInbox[int](v).Deliver(1)
	}()
	v.Run(v.Pace)
	in, stop := servePaced(t, v)
	defer stop()
	ran := make(chan struct{})
	in.Deliver(func() { close(ran) })
	<-ran
}

// TestSecondPaceDoesNothing: Pace on a paced clock keeps its offset.
func TestSecondPaceDoesNothing(t *testing.T) {
	v := NewPaced()
	origin, timer := v.origin, v.timer
	time.Sleep(2 * time.Millisecond)
	v.Run(v.Pace)
	if v.origin != origin || v.timer != timer {
		t.Fatalf("second Pace moved the offset from %v to %v", origin, v.origin)
	}
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
		{"inbox", func(v *Virtual) { NewInbox[int](v).Receive() }},
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

// TestInboxServesInInstantSeqOrder: an actor's Send files a parked
// receiver at the current instant, after every actor already due then,
// and values sent at one instant are received in the order sent. A value
// already queued is received without giving up the turn.
func TestInboxServesInInstantSeqOrder(t *testing.T) {
	v := NewVirtual(epoch)
	in := NewInbox[string](v)
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%v %s", v.Now().Sub(epoch), s)) }
	v.Run(func() {
		g := NewGroup(v)
		g.Go(func() {
			for i := 0; i < 3; i++ {
				note("got " + in.Receive())
			}
		})
		g.Go(func() {
			v.Sleep(time.Millisecond)
			in.Send("a")
			in.Send("b")
			v.Go(func() { note("spawned after the sends") })
			note("sender keeps the turn")
			v.Sleep(time.Millisecond)
			in.Send("c")
		})
		g.Go(func() {
			v.Sleep(time.Millisecond)
			note("due before the sends")
		})
		g.Wait()
	})
	want := []string{
		"1ms sender keeps the turn",
		"1ms due before the sends",
		"1ms got a",
		"1ms got b",
		"1ms spawned after the sends",
		"2ms got c",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("order\n got %q\nwant %q", log, want)
	}
}

// TestInboxReceiveQueuedDoesNotYield: a receiver with a value queued keeps
// its turn, so an actor due at the same instant runs after it.
func TestInboxReceiveQueuedDoesNotYield(t *testing.T) {
	v := NewVirtual(epoch)
	in := NewInbox[int](v)
	var order []string
	v.Run(func() {
		in.Send(1)
		v.Go(func() { order = append(order, "other") })
		in.Receive()
		order = append(order, "receiver")
		v.Sleep(time.Millisecond)
	})
	if want := []string{"receiver", "other"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
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
