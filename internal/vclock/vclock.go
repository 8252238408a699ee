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

// Virtual is a deterministic discrete-event clock.
type Virtual struct {
	mu      sync.Mutex
	epoch   time.Time
	now     int64      // ns since epoch
	due     []*actor   // actors filed to run, a min-heap by (deadline, seq)
	seq     uint64     // tie-break so equal deadlines run FIFO
	cur     *actor     // the actor holding the turn, nil between turns
	blocked int        // actors inside Block
	idle    *sync.Cond // on mu: a Block returned while nothing was due
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at epoch. The experiment
// harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	v := &Virtual{epoch: epoch}
	v.idle = sync.NewCond(&v.mu)
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch.Add(time.Duration(v.now))
}

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
func (v *Virtual) Go(fn func()) {
	a := newActor(fn)
	v.mu.Lock()
	v.pushLocked(a, v.now)
	v.mu.Unlock()
}

// Run runs fn as an actor and drives the clock until fn returns: it
// pops the earliest due actor, advances time to its deadline and
// switches into it, over and over. Actors still filed when fn returns
// stay filed and resume in the next Run. A panic in any actor surfaces
// from Run. Run is not called from an actor.
func (v *Virtual) Run(fn func()) {
	root := newActor(fn)
	v.mu.Lock()
	v.pushLocked(root, v.now)
	for {
		for len(v.due) == 0 && v.blocked > 0 {
			v.idle.Wait()
		}
		if len(v.due) == 0 {
			v.mu.Unlock()
			panic("vclock: deadlock: every actor waits on an Event nobody can fire")
		}
		a := v.popLocked()
		if a.deadline > v.now {
			v.now = a.deadline
		}
		v.cur = a
		v.mu.Unlock()
		_, running := a.resume()
		v.mu.Lock()
		v.cur = nil
		if a == root && !running {
			break
		}
	}
	v.mu.Unlock()
}

// Block runs fn on a helper goroutine while the calling actor gives up
// its turn, and files the caller again at the instant fn returns. Use it
// when an actor must wait on something other than the clock — a
// sync.WaitGroup, a channel — that other actors or host goroutines
// release; the other actors run meanwhile. The instant is the clock's
// when the helper sees fn return, so it is deterministic only if nothing
// else is due by then: a join on the last finisher (Block(wg.Wait) at the
// end of a run) resumes at that finisher's instant, but a join between
// actors that keep running should park on an Event the finisher fires.
// The caller must be an actor.
func (v *Virtual) Block(fn func()) {
	v.mu.Lock()
	a := v.cur
	v.blocked++
	v.mu.Unlock()
	go func() {
		fn()
		v.done(a)
	}()
	a.yield(struct{}{})
}

// done ends a's Block: it files a at the current instant and wakes Run
// if nothing else was due.
func (v *Virtual) done(a *actor) {
	v.mu.Lock()
	v.blocked--
	v.pushLocked(a, v.now)
	v.idle.Signal()
	v.mu.Unlock()
}

// Sleep implements Clock. The caller must be an actor. A sleeper that is
// itself the next due carries on without giving up the turn.
//
// c4h:hotpath
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	a := v.cur
	v.pushLocked(a, v.now+int64(d))
	if v.due[0] == a {
		v.popLocked()
		v.now = a.deadline
		v.mu.Unlock()
		return
	}
	v.mu.Unlock()
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
	v := e.v
	v.mu.Lock()
	if e.fired {
		v.mu.Unlock()
		return
	}
	a := v.cur
	e.waiters = append(e.waiters, a)
	v.mu.Unlock()
	a.yield(struct{}{})
}

// Fire releases every waiter, in arrival order, at the current virtual
// instant. Firing twice is a no-op. The caller keeps the turn.
//
// c4h:hotpath
func (e *Event) Fire() {
	v := e.v
	v.mu.Lock()
	if !e.fired {
		e.fired = true
		for _, a := range e.waiters {
			v.pushLocked(a, v.now)
		}
		e.waiters = nil
	}
	v.mu.Unlock()
}

// before orders actors by deadline, then arrival.
func (a *actor) before(b *actor) bool {
	return a.deadline < b.deadline || (a.deadline == b.deadline && a.seq < b.seq)
}

// pushLocked files a under deadline and the next arrival number,
// sifting it up the heap. Caller holds v.mu.
func (v *Virtual) pushLocked(a *actor, deadline int64) {
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

// popLocked removes and returns the earliest actor, sifting the last
// one down from the root. Caller holds v.mu and the heap is not empty.
//
// c4h:hotpath
func (v *Virtual) popLocked() *actor {
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
