// Package vclock provides the clock the whole repository is written
// against: one discrete-event engine, Virtual, run two ways. The
// experiment harness runs it unpaced from a fixed epoch, so the paper's
// multi-minute experiments (e.g. the 700 MB trace replay behind Fig 6)
// reproduce in milliseconds of wall time, with zero flakiness. c4hd runs
// it paced to the wall clock, so the same modeled costs take real time
// while clients wait on them: it builds its home unpaced and calls Pace
// just before it listens.
//
// The clock is a run-to-block scheduler. Run's fn and every function
// passed to Go is an actor: a coroutine (iter.Pull) that only the
// goroutine that called Run ever resumes. Run keeps one (deadline, seq)
// min-heap of actors due to run; it pops the earliest, moves time to its
// deadline and switches into it. The actor runs alone until it sleeps,
// waits on an Event or an Inbox, calls Block or returns, and then
// switches back. So exactly one actor runs at a time, actors due at one
// instant run in arrival order, and a hand-off wakes no goroutine: on
// c4h-perf's home-trace (2-core box) the coroutine switch does 1.38x the
// host ops/s of parking each sleeper on a sync.Cond of its own (median of
// 10 alternating pairs, all won), with bit-equal virtual results
// (DESIGN.md, "Why there is one clock engine").
//
// A paced clock's Run keeps virtual time equal to wall time minus a fixed
// offset, which Pace set so that the virtual instant it was called at is
// the wall instant it was called at. It waits on the wall clock until the
// earliest deadline is due, so no actor runs early: on the Go timer until
// fineWait before it, then, where the system has nanosleep, one nanosleep
// of the rest on Run's own thread, since the runtime's timers wake on the
// netpoller's whole milliseconds. It moves time to that deadline, not to
// the instant it woke, so a late wake only brings later deadlines nearer:
// an actor's sleeps end at absolute deadlines and one wake's lateness
// does not add up across them. With nothing due, Run waits for a delivery
// to an Inbox, and files one it was listening for at the instant it takes
// it. Each delivery carries the wall instant it was made at, and one that
// had to wait for Run, as through the fine sleep, is filed at its stamp
// (or now, if later): where a listening Run would have filed it.
//
// A Virtual has no lock. Only the goroutine that called Run and the actor
// holding the turn may call its methods (and those of its Events and
// Inboxes); a coroutine switch orders each turn after the last. The one
// way in from any other goroutine is Inbox.Deliver, on a paced clock: a
// resident actor parked in Inbox.Receive takes the value on the clock.
//
// Group is the one way to spawn background work and join it.
package vclock

import (
	"iter"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the calling actor for d. A non-positive d returns
	// immediately.
	Sleep(d time.Duration)
}

// Virtual is a discrete-event clock. Only Run's goroutine and the actor
// holding the turn call its methods.
type Virtual struct {
	epoch   time.Time
	now     int64       // ns since epoch
	due     []*actor    // actors filed to run, a min-heap by (deadline, seq)
	seq     uint64      // tie-break so equal deadlines run FIFO
	cur     *actor      // the actor holding the turn, nil between turns
	blocked int         // actors inside Block, counted until they resume
	in      chan handIn // Block's helpers and Deliver reach Run here
	paced   bool        // Run waits on the wall clock for each deadline
	timer   *time.Timer // paced: Run's coarse wait, made on first use
	origin  time.Time   // paced: the wall instant of virtual instant 0

	// Paced wakes: how many of Run's waits on the wall clock ended at a
	// deadline, and the sum and maximum of how late Run resumed. Run
	// writes them; read them on the clock.
	Wakes            int
	LateSum, LateMax time.Duration
}

// handIn is a value delivered to an inbox from another goroutine, with
// its arrival instant: paced, the wall instant it was made at, else 0.
type handIn struct {
	box mailbox
	msg any
	at  int64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns an unpaced virtual clock starting at epoch. The
// experiment harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{epoch: epoch, in: make(chan handIn)}
}

// NewPaced returns a virtual clock paced to the wall clock, starting at
// the current wall instant: Now reads the wall time at which the actor
// holding the turn was due. Epoch and offset are one reading, so Now is
// exactly that wall time.
func NewPaced() *Virtual {
	now := time.Now()
	v := NewVirtual(now)
	v.origin, v.paced = now, true
	return v
}

// Pace paces an unpaced clock from the current instant: from now on
// virtual time runs with the wall clock, offset so that the current
// virtual instant is the current wall instant. The epoch stays, so Now
// stays monotonic and actors already filed keep their virtual deadlines;
// Deliver becomes legal. The caller holds the turn (or Run has not started).
// On a paced clock it does nothing.
func (v *Virtual) Pace() {
	if v.paced {
		return
	}
	// No other work either side of the reading: a caller's reading just
	// before or after Pace is as near the offset as a wake to its deadline.
	v.origin = time.Now().Add(-time.Duration(v.now))
	v.paced = true
}

// Now implements Clock.
func (v *Virtual) Now() time.Time { return v.epoch.Add(time.Duration(v.now)) }

// actor is one coroutine on the clock and its place in the heap.
type actor struct {
	deadline int64 // ns since the clock's epoch
	seq      uint64
	resume   func() (struct{}, bool) // runs the actor until it yields; false once it returned
	yield    func(struct{}) bool     // hands the turn back to Run
}

// newActor wraps fn in a coroutine that has not started yet.
func newActor(fn func()) *actor {
	a := &actor{}
	a.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		a.yield = yield
		fn()
	})
	return a
}

// Go files fn as a new actor at the current instant, after every actor
// already due then. The caller keeps the turn.
func (v *Virtual) Go(fn func()) { v.push(newActor(fn), v.now) }

// Run runs fn as an actor and drives the clock until fn returns: it
// pops the earliest due actor, advances time to its deadline and
// switches into it, over and over. Between turns it files every hand-in:
// a returned Block or a delivery. Unpaced, it waits for one only
// when nothing else is due; paced, it waits on the wall clock until the
// earliest actor is due, taking hand-ins meanwhile. Actors still filed
// when fn returns stay filed and resume in the next Run. A panic in any
// actor surfaces from Run. Run is not called from an actor.
func (v *Virtual) Run(fn func()) {
	root := newActor(fn)
	v.push(root, v.arrival())
	for {
		if v.paced {
			v.pace()
		} else {
			v.unblock()
			if len(v.due) == 0 {
				panic("vclock: deadlock: every actor waits on an Event nobody can fire")
			}
		}
		a := v.pop()
		if a.deadline > v.now {
			v.now = a.deadline
		}
		v.cur = a
		_, running := a.resume()
		v.cur = nil
		if a == root && !running {
			return
		}
	}
}

// wall is the wall time as a virtual instant, which a paced clock's
// virtual time never passes.
func (v *Virtual) wall() int64 { return int64(time.Since(v.origin)) }

// arrival is the instant a hand-in from outside the schedule is filed
// at: now, or on a paced clock the wall instant if that is later.
func (v *Virtual) arrival() int64 {
	if v.paced {
		return max(v.now, v.wall())
	}
	return v.now
}

// file files a delivery into its inbox at its arrival instant, or now if
// that is later.
func (v *Virtual) file(h handIn) { h.box.put(h.msg, max(v.now, h.at)) }

// unblock files every actor whose Block helper has reported (or, paced,
// every delivery made meanwhile), and while nothing is due waits for one.
func (v *Virtual) unblock() {
	for v.blocked > 0 {
		var h handIn
		if len(v.due) == 0 {
			h = <-v.in
		} else {
			select {
			case h = <-v.in:
			default:
				return
			}
		}
		v.file(h)
	}
}

// pace files every hand-in and waits on the wall clock until the earliest
// filed actor is due; with nothing filed it waits for a hand-in. It waits
// on the timer, taking hand-ins, until fineWait before the deadline, and
// sleeps the rest without taking any; it reads the wall clock again after
// every wake, so a wake that comes early only waits again.
func (v *Virtual) pace() {
	woke := false // a wait on the wall clock has ended
	for {
		var due <-chan time.Time // nil: nothing filed, wait for a hand-in
		if len(v.due) > 0 {
			wait := time.Duration(v.due[0].deadline - v.wall())
			if wait <= 0 {
				select {
				case h := <-v.in:
					v.file(h)
					continue
				default:
				}
				if woke {
					v.Wakes++
					v.LateSum -= wait
					v.LateMax = max(v.LateMax, -wait)
				}
				return
			}
			if wait <= fineWait {
				sleepFine(wait)
				woke = true
				continue
			}
			if v.timer == nil {
				v.timer = time.NewTimer(wait - fineWait)
			} else {
				v.timer.Reset(wait - fineWait)
			}
			due = v.timer.C
		}
		select {
		case h := <-v.in:
			if due != nil {
				v.timer.Stop()
			}
			h.at = v.wall() // Run was listening: h arrives as Run takes it
			v.file(h)
		case <-due:
			woke = true
		}
	}
}

// Block runs fn on a helper goroutine while the calling actor gives up
// its turn. Once fn has returned, the next turn boundary (or, unpaced,
// Sleep) files the caller again at the current instant, or on a paced
// clock at the wall instant fn returned at if that is later.
// It is for a wait on something other than the clock: the three
// end-of-run Block(wg.Wait) joins in cmd/c4h-perf, which resume at the
// last finisher's instant because nothing else is due by then. A wait
// for a host goroutine that has something to say is an Inbox; a join
// between actors that keep running is a Group (or an Event the finisher
// fires). The caller must be an actor.
func (v *Virtual) Block(fn func()) {
	done := NewInbox[struct{}](v)
	v.blocked++
	paced := v.paced // a Pace meanwhile files the caller at now
	go func() {
		fn()
		var at int64
		if paced {
			at = v.wall()
		}
		v.in <- handIn{box: done, at: at} // Deliver, on any clock
	}()
	done.Receive()
	v.blocked--
}

// Sleep implements Clock. The caller must be an actor. A sleeper that is
// itself the next due, once every returned Block is filed, carries on
// without giving up the turn; on a paced clock only once its deadline has
// passed on the wall clock, when a delivery arriving now would be filed
// after it anyway.
//
// c4h:hotpath
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	a := v.cur
	v.push(a, v.now+int64(d))
	v.unblock() // a is due, so this never waits
	if v.due[0] == a && (!v.paced || a.deadline <= v.wall()) {
		v.pop()
		v.now = a.deadline
		return
	}
	a.yield(struct{}{})
}

// Event is a deterministic one-shot broadcast point for actors: Fire
// files every waiter at the current instant, in arrival order, after
// every actor already due then, so they resume one at a time, FIFO,
// regardless of Go scheduling. The fetch coalescing layer uses it to
// block follower fetches on the leader's transfer without perturbing
// the schedule.
type Event struct {
	v       *Virtual
	fired   bool
	waiters []*actor
}

// NewEvent returns an unfired event bound to the clock.
func (v *Virtual) NewEvent() *Event { return &Event{v: v} }

// Wait gives up the calling actor's turn until Fire. Waiting on an
// already-fired event returns immediately without yielding the schedule.
func (e *Event) Wait() {
	if e.fired {
		return
	}
	a := e.v.cur
	e.waiters = append(e.waiters, a)
	a.yield(struct{}{})
}

// Fire releases every waiter, in arrival order, at the current virtual
// instant. Firing twice is a no-op. The caller keeps the turn.
//
// c4h:hotpath
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, a := range e.waiters {
		e.v.push(a, e.v.now)
	}
	e.waiters = nil
}

// Group spawns actors and joins them: Wait parks on an Event the last
// finisher fires before it returns, so the join is part of the schedule.
// Wait returns once nothing spawned through the Group is running,
// counting what members spawn while it waits, and the Group can be used
// again.
type Group struct {
	v       *Virtual
	running int    // spawned actors that have not returned
	drained *Event // non-nil while a Wait parks
}

// NewGroup returns an empty group spawning on v.
func NewGroup(v *Virtual) *Group { return &Group{v: v} }

// Go files fn as an actor at the current instant.
func (g *Group) Go(fn func()) {
	g.running++
	g.v.Go(func() {
		fn()
		if g.running--; g.running == 0 && g.drained != nil {
			g.drained.Fire() // files the waiters; this actor keeps the turn
			g.drained = nil
		}
	})
}

// Wait returns once every spawned function has returned. The caller must
// be an actor; with nothing running it returns without yielding, else it
// resumes at the last finisher's instant, after every actor already due
// then.
func (g *Group) Wait() {
	if g.running == 0 {
		return
	}
	if g.drained == nil {
		g.drained = g.v.NewEvent()
	}
	g.drained.Wait()
}

// Inbox is a queue of values for one resident actor, which takes them in
// the order they were filed: the clock's one entry for work from host
// goroutines, and a mailbox between actors. A host goroutine delivers,
// an actor holding the turn sends; both file the value and wake the
// actor parked in Receive.
type Inbox[T any] struct {
	v      *Virtual
	queue  []T    // filed, not yet received, from head on
	head   int    // the next to receive
	waiter *actor // the actor parked in Receive, nil while it runs
}

// mailbox is an inbox of any type, as Run files a delivery into it.
type mailbox interface{ put(msg any, at int64) }

// NewInbox returns an empty inbox on v.
func NewInbox[T any](v *Virtual) *Inbox[T] { return &Inbox[T]{v: v} }

// Deliver hands msg to the inbox from a goroutine that is not the
// clock's. Run files it at its arrival instant, or now if that is later:
// the instant Run takes it if Run was listening, else the wall instant
// Deliver stamped it with, so a request that arrives during a fine sleep
// or after an idle spell starts at its arrival. It returns once Run has
// filed msg: deliveries made one after another are received in that
// order, the order Run takes them in. The clock must be paced; on an
// unpaced clock, whose schedule is only what its actors make, an actor
// sends instead. A pointer-shaped T delivers without allocating.
func (b *Inbox[T]) Deliver(msg T) {
	if !b.v.paced {
		panic("vclock: Deliver on an unpaced clock")
	}
	b.v.in <- handIn{box: b, msg: msg, at: b.v.wall()}
}

// Send files msg from the actor holding the turn, on any clock: a parked
// receiver is due at the current instant, after every actor already due
// then. The caller keeps the turn.
func (b *Inbox[T]) Send(msg T) { b.put(msg, b.v.now) }

// put queues msg and files a parked receiver at instant at.
func (b *Inbox[T]) put(msg any, at int64) {
	m, _ := msg.(T) // a nil interface delivered is T's zero value
	b.queue = append(b.queue, m)
	if a := b.waiter; a != nil {
		b.waiter = nil
		b.v.push(a, at)
	}
}

// Receive returns the oldest value filed and not yet received; with none,
// the calling actor gives up its turn until one is filed. One actor
// receives from an inbox.
func (b *Inbox[T]) Receive() T {
	if b.head == len(b.queue) {
		b.waiter = b.v.cur
		b.waiter.yield(struct{}{})
	}
	msg := b.queue[b.head]
	var zero T
	b.queue[b.head] = zero
	b.head++
	if b.head == len(b.queue) {
		b.queue, b.head = b.queue[:0], 0
	}
	return msg
}

// before orders actors by deadline, then arrival.
func (a *actor) before(b *actor) bool {
	return a.deadline < b.deadline || (a.deadline == b.deadline && a.seq < b.seq)
}

// push files a under deadline and the next arrival number, sifting it
// up the heap.
func (v *Virtual) push(a *actor, deadline int64) {
	a.deadline, a.seq = deadline, v.seq
	v.seq++
	h := append(v.due, a)
	i := len(h) - 1
	for p := (i - 1) / 2; i > 0 && a.before(h[p]); p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = a
	v.due = h
}

// pop removes and returns the earliest actor, sifting the last one down
// from the root. The heap is not empty.
//
// c4h:hotpath
func (v *Virtual) pop() *actor {
	h := v.due
	top, n := h[0], len(h)-1
	last := h[n]
	h[n], h = nil, h[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i], i = h[c], c
	}
	if n > 0 {
		h[i] = last
	}
	v.due = h
	return top
}
