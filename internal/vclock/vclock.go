// Package vclock provides the clock the whole repository is written
// against: one discrete-event engine, Virtual, run two ways. The
// experiment harness runs it unpaced from a fixed epoch, so the paper's
// multi-minute experiments (e.g. the 700 MB trace replay behind Fig 6)
// reproduce in milliseconds of wall time, with zero flakiness. c4hd runs
// it paced to the wall clock (NewPaced), so the same modeled costs take
// real time while clients wait on them.
//
// The clock is a run-to-block scheduler. Run's fn and every function
// passed to Go or Post is an actor: a coroutine (iter.Pull) that only the
// goroutine that called Run ever resumes. Run keeps one (deadline, seq)
// min-heap of actors due to run; it pops the earliest, moves time to its
// deadline and switches into it. The actor runs alone until it sleeps,
// waits on an Event, calls Block or returns, and then switches back. So
// exactly one actor runs at a time, actors due at one instant run in
// arrival order, and a hand-off wakes no goroutine: on c4h-perf's
// home-trace (2-core box) the coroutine switch does 1.38x the host ops/s
// of parking each sleeper on a sync.Cond of its own (median of 10
// alternating pairs, all won), with bit-equal virtual results (DESIGN.md,
// "Why there is one clock engine").
//
// A paced clock's Run keeps virtual time equal to wall time minus a fixed
// offset (the wall instant NewPaced was called). It waits on the wall
// clock until the earliest deadline is due, so no actor runs early, and
// moves time to that deadline, not to the instant it woke, so a late wake
// only brings later deadlines nearer: an actor's sleeps end at absolute
// deadlines and one timer's lateness does not add up across them. With
// nothing due, Run waits for a Post, which files a new actor at
// max(now, wall − offset).
//
// A Virtual has no lock. Only the goroutine that called Run and the actor
// holding the turn may call its methods (and those of its Events); a
// coroutine switch orders each turn after the last. The one way in from
// any other goroutine is Post, on a paced clock.
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
// holding the turn call its methods, except Post.
type Virtual struct {
	epoch   time.Time
	now     int64       // ns since epoch
	due     []*actor    // actors filed to run, a min-heap by (deadline, seq)
	seq     uint64      // tie-break so equal deadlines run FIFO
	cur     *actor      // the actor holding the turn, nil between turns
	blocked int         // actors inside Block, counted until they resume
	in      chan *actor // Block's helpers and Post hand actors to Run here
	paced   bool        // Run waits on the wall clock for each deadline
	timer   *time.Timer // paced: Run's wait for the earliest deadline
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns an unpaced virtual clock starting at epoch. The
// experiment harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{epoch: epoch, in: make(chan *actor)}
}

// NewPaced returns a virtual clock paced to the wall clock, starting at
// the current wall instant: Now reads the wall time at which the actor
// holding the turn was due.
func NewPaced() *Virtual {
	v := NewVirtual(time.Now())
	v.paced = true
	v.timer = time.NewTimer(time.Hour)
	v.timer.Stop()
	return v
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

// Post files fn as a new actor on a paced clock, at max(now, wall −
// offset): an op that arrives after an idle spell starts at its arrival
// instant, so none of its sleeps is skipped. Any goroutine but the
// clock's own may call it; it returns once Run has filed the actor, so
// posts made one after another run in that order. An actor spawns with
// Go instead.
func (v *Virtual) Post(fn func()) {
	if !v.paced {
		panic("vclock: Post on an unpaced clock")
	}
	v.in <- newActor(fn)
}

// Run runs fn as an actor and drives the clock until fn returns: it
// pops the earliest due actor, advances time to its deadline and
// switches into it, over and over. Between turns it files every actor
// handed in by a returned Block or a Post. Unpaced, it waits for one only
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

// wall is the wall time since the epoch, which a paced clock's virtual
// time never passes.
func (v *Virtual) wall() int64 { return int64(time.Since(v.epoch)) }

// arrival is the instant an actor handed in from outside the schedule is
// filed at: now, or on a paced clock the wall instant if that is later.
func (v *Virtual) arrival() int64 {
	if v.paced {
		return max(v.now, v.wall())
	}
	return v.now
}

// unblock files, at its arrival instant, every actor whose Block helper
// has reported (or, paced, that was posted meanwhile), and while nothing
// is due waits for one.
func (v *Virtual) unblock() {
	for v.blocked > 0 {
		var a *actor
		if len(v.due) == 0 {
			a = <-v.in
		} else {
			select {
			case a = <-v.in:
			default:
				return
			}
		}
		v.push(a, v.arrival())
	}
}

// pace files every actor handed in at its arrival instant and waits on
// the wall clock until the earliest filed actor is due; with nothing
// filed it waits for a hand-in.
func (v *Virtual) pace() {
	for {
		var due <-chan time.Time // nil: nothing filed, wait for a hand-in
		if len(v.due) > 0 {
			wait := time.Duration(v.due[0].deadline - v.wall())
			if wait <= 0 {
				select {
				case a := <-v.in:
					v.push(a, v.arrival())
					continue
				default:
					return
				}
			}
			v.timer.Reset(wait)
			due = v.timer.C
		}
		select {
		case a := <-v.in:
			v.timer.Stop()
			v.push(a, v.arrival())
		case <-due:
		}
	}
}

// Block runs fn on a helper goroutine while the calling actor gives up
// its turn. Once fn has returned, the next turn boundary (or, unpaced,
// Sleep) files the caller again at its arrival instant: the current one,
// or on a paced clock the wall instant fn returned at if that is later.
// It is for a wait on something other than the clock: c4hd's wait for
// shutdown and the three end-of-run Block(wg.Wait) joins in
// cmd/c4h-perf, which resume at the last finisher's instant because
// nothing else is due by then. A join between actors that keep running
// is a Group (or an Event the finisher fires). The caller must be an
// actor.
func (v *Virtual) Block(fn func()) {
	a := v.cur
	v.blocked++
	go func() {
		fn()
		v.in <- a
	}()
	a.yield(struct{}{})
	v.blocked--
}

// Sleep implements Clock. The caller must be an actor. A sleeper that is
// itself the next due, once every returned Block is filed, carries on
// without giving up the turn; on a paced clock only once its deadline has
// passed on the wall clock, when a post arriving now would be filed after
// it anyway.
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
