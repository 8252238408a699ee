// Package vclock provides the clock abstraction the whole repository is
// written against. Production binaries use the real clock; the experiment
// harness uses a deterministic discrete-event virtual clock so that the
// paper's multi-minute experiments (e.g. the 700 MB trace replay behind
// Fig 6) reproduce in milliseconds of wall time, with zero flakiness.
//
// The virtual clock is a run-to-block scheduler. Run's fn and every
// function passed to Go is an actor: a coroutine (iter.Pull) that only
// the goroutine that called Run ever resumes. Run keeps one (deadline,
// seq) min-heap of actors due to run; it pops the earliest, jumps time
// to its deadline and switches into it. The actor runs alone until it
// sleeps, waits on an Event, calls Block or returns, and then switches
// back. So exactly one actor runs at a time, actors due at one instant
// run in arrival order, and a hand-off wakes no goroutine: on c4h-perf's
// home-trace (2-core box) the coroutine switch does 1.38x the host ops/s
// of parking each sleeper on a sync.Cond of its own (median of 10
// alternating pairs, all won), with bit-equal virtual results
// (DESIGN.md, "Why there is one clock engine").
//
// A Virtual has no lock. Only the goroutine that called Run and the actor
// holding the turn may call its methods (and those of its Events); a
// coroutine switch orders each turn after the last. A host goroutine that
// needs the clock's time must get it from an actor.
//
// Group is the one way to spawn background work and join it on either
// clock: actors on a Virtual, goroutines on any other Clock.
package vclock

import (
	"iter"
	"sync"
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

// Real is the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Virtual is a deterministic discrete-event clock. Only Run's goroutine
// and the actor holding the turn call its methods.
type Virtual struct {
	epoch     time.Time
	now       int64       // ns since epoch
	due       []*actor    // actors filed to run, a min-heap by (deadline, seq)
	seq       uint64      // tie-break so equal deadlines run FIFO
	cur       *actor      // the actor holding the turn, nil between turns
	blocked   int         // actors inside Block
	unblocked chan *actor // Block's helper goroutine sends its caller here
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at epoch. The experiment
// harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{epoch: epoch, unblocked: make(chan *actor)}
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
// switches into it, over and over. Between turns it files again every
// actor whose Block has returned, waiting for one only when nothing else
// is due. Actors still filed when fn returns stay filed and resume in
// the next Run. A panic in any actor surfaces from Run. Run is not
// called from an actor.
func (v *Virtual) Run(fn func()) {
	root := newActor(fn)
	v.push(root, v.now)
	for {
		v.unblock()
		if len(v.due) == 0 {
			panic("vclock: deadlock: every actor waits on an Event nobody can fire")
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

// unblock files, at the current instant, every actor whose Block helper
// has reported, and while nothing is due waits for one.
func (v *Virtual) unblock() {
	for v.blocked > 0 {
		var a *actor
		if len(v.due) == 0 {
			a = <-v.unblocked
		} else {
			select {
			case a = <-v.unblocked:
			default:
				return
			}
		}
		v.blocked--
		v.push(a, v.now)
	}
}

// Block runs fn on a helper goroutine while the calling actor gives up
// its turn. Once fn has returned, the next turn boundary or Sleep files
// the caller again at the current instant. It is for a wait on something
// other than the clock: its
// only callers outside this package are the three end-of-run
// Block(wg.Wait) joins in cmd/c4h-perf, which resume at the last
// finisher's instant because nothing else is due by then. A join between
// actors that keep running is a Group (or an Event the finisher fires).
// The caller must be an actor.
func (v *Virtual) Block(fn func()) {
	a := v.cur
	v.blocked++
	go func() {
		fn()
		v.unblocked <- a
	}()
	a.yield(struct{}{})
}

// Sleep implements Clock. The caller must be an actor. A sleeper that is
// itself the next due, once every returned Block is filed, carries on
// without giving up the turn.
//
// c4h:hotpath
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	a := v.cur
	v.push(a, v.now+int64(d))
	v.unblock() // a is due, so this never waits
	if v.due[0] == a {
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

// Group spawns functions and joins them, on either clock: on a
// *Virtual each is an actor and Wait parks on an Event the last finisher
// fires before it returns, so the join is part of the schedule; on any
// other Clock each is a goroutine and Wait is a sync.WaitGroup's. Wait
// returns once nothing spawned through the Group is running, counting
// what members spawn while it waits, and the Group can be used again.
type Group struct {
	v       *Virtual       // nil off the virtual clock
	running int            // virtual: spawned actors that have not returned
	drained *Event         // virtual: non-nil while a Wait parks
	wg      sync.WaitGroup // any other clock
}

// NewGroup returns an empty group spawning on c.
func NewGroup(c Clock) *Group {
	v, _ := c.(*Virtual)
	return &Group{v: v}
}

// Go runs fn in the background: as an actor filed at the current
// instant on a virtual clock, else on a new goroutine.
func (g *Group) Go(fn func()) {
	if g.v == nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			fn()
		}()
		return
	}
	g.running++
	g.v.Go(func() {
		fn()
		if g.running--; g.running == 0 && g.drained != nil {
			g.drained.Fire() // files the waiters; this actor keeps the turn
			g.drained = nil
		}
	})
}

// Wait returns once every spawned function has returned. On a virtual
// clock the caller must be an actor; with nothing running it returns
// without yielding, else it resumes at the last finisher's instant, after
// every actor already due then.
func (g *Group) Wait() {
	if g.v == nil {
		g.wg.Wait()
		return
	}
	if g.running == 0 {
		return
	}
	if g.drained == nil {
		g.drained = g.v.NewEvent()
	}
	g.drained.Wait()
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
