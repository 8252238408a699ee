// Package vclock provides the clock abstraction the whole repository is
// written against. Production binaries use the real clock; the experiment
// harness uses a deterministic discrete-event virtual clock so that the
// paper's multi-minute experiments (e.g. the 700 MB trace replay behind
// Fig 6) reproduce in milliseconds of wall time, with zero flakiness.
//
// The virtual clock is a cooperative discrete-event scheduler: goroutines
// participating in an experiment register as workers (Go or Add/Done);
// when every registered worker is blocked in Sleep, virtual time jumps to
// the earliest pending deadline and the corresponding sleepers wake.
//
// There is one scheduler engine: a global (deadline, seq) min-heap of
// sleepers, one woken per advance. Each sleeper parks on a sync.Cond of
// its own, bound to the clock's mutex, and the advance Signals only the
// sleeper it pops. Waking all waiters of one shared cond instead woke
// every parked worker on every advance: on c4h-perf's home-trace (2-core
// box) the targeted wake does 73.5k host ops/s against 44.8k, a 1.50x
// median over 10 alternating pairs, all won, with bit-equal virtual
// results (DESIGN.md, "Why there is one clock engine").
package vclock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the calling worker for d. A non-positive d returns
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
	active  int        // registered workers currently runnable
	sleeper []*sleeper // parked workers, a min-heap by (deadline, seq)
	free    []*sleeper // sleeper records not in use, each bound to mu
	seq     uint64     // tie-break so equal deadlines wake FIFO
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at epoch. The experiment
// harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual { return &Virtual{epoch: epoch} }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch.Add(time.Duration(v.now))
}

// Add registers n runnable workers. Every goroutine that will call Sleep
// must be registered, otherwise time can advance while it still has work
// to do. Pair with Done.
func (v *Virtual) Add(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.active += n
}

// Done unregisters a worker. When the last runnable worker finishes or
// sleeps, time advances.
func (v *Virtual) Done() {
	v.mu.Lock()
	v.active--
	if v.active == 0 {
		v.advanceLocked()
	}
	v.mu.Unlock()
}

// Go runs fn as a registered worker in a new goroutine.
func (v *Virtual) Go(fn func()) {
	v.Add(1)
	go func() {
		defer v.Done()
		fn()
	}()
}

// Run registers the calling goroutine, runs fn, and unregisters. Use it
// for the experiment's main driver.
func (v *Virtual) Run(fn func()) {
	v.Add(1)
	defer v.Done()
	fn()
}

// Block runs fn with the calling worker deregistered. Use it whenever a
// registered worker must block on something other than Sleep (a
// sync.WaitGroup, channel receive, ...): while fn blocks, virtual time is
// free to advance so the goroutines it waits for can make progress.
// Blocking on such primitives while registered deadlocks the clock.
//
// Hazard: fn must really block, and be released by a worker that is still
// registered. If fn returns at once, or its releaser has already called
// Done, the deregistration above can drop the runnable count to zero:
// time then jumps to the next sleeper and wakes it while the caller is
// about to run too — two runnable workers, in host-scheduling order. A
// join on a virtual clock should use an Event, fired by the finisher
// before it deregisters.
func (v *Virtual) Block(fn func()) {
	v.Done()
	defer v.Add(1)
	fn()
}

// Sleep implements Clock. The caller must be a registered worker.
//
// c4h:hotpath
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	s := v.getSleeperLocked()
	v.pushLocked(s, v.now+int64(d))
	v.parkLocked(s)
	v.mu.Unlock()
}

// parkLocked deregisters the caller, advances time if it was the last
// runnable worker, and waits until s is popped; a caller whose own
// sleeper is the one popped never parks. Caller holds v.mu.
func (v *Virtual) parkLocked(s *sleeper) {
	v.active--
	if v.active == 0 {
		v.advanceLocked()
	}
	for !s.woken {
		s.cond.Wait()
	}
	v.free = append(v.free, s)
}

// advanceLocked jumps time to the earliest deadline and wakes exactly
// one sleeper — the earliest, FIFO among equal deadlines. Caller holds
// v.mu and v.active == 0.
//
// Waking one worker at a time (rather than every sleeper due at the
// instant) keeps concurrent workloads deterministic: at most one worker
// is runnable after the advance, so shared state (the network's
// per-operation RNG counter, job queues, resource active counts) is
// always touched in deadline order, never in Go-scheduler order. When
// the woken worker sleeps or finishes, the next sleeper due at the same
// instant wakes; virtual time never regresses.
//
// c4h:hotpath
func (v *Virtual) advanceLocked() {
	if len(v.sleeper) == 0 {
		return
	}
	s := v.popLocked()
	if s.deadline > v.now {
		v.now = s.deadline
	}
	s.woken = true
	v.active++
	s.cond.Signal()
}

// Event is a deterministic one-shot broadcast point for registered
// workers: waiters park exactly like sleepers, and Fire releases them
// through the normal advance machinery — each waiter is enqueued at the
// current instant with a fresh sequence number in arrival order, so they
// wake one at a time, FIFO, regardless of Go scheduling. The fetch
// coalescing layer uses it to block follower fetches on the leader's
// transfer without perturbing the schedule.
type Event struct {
	v       *Virtual
	fired   bool
	waiters []*sleeper
}

// NewEvent returns an unfired event bound to the clock.
func (v *Virtual) NewEvent() *Event { return &Event{v: v} }

// Wait parks the calling registered worker until Fire. Waiting on an
// already-fired event returns immediately without yielding the schedule.
func (e *Event) Wait() {
	v := e.v
	v.mu.Lock()
	if !e.fired {
		s := v.getSleeperLocked()
		e.waiters = append(e.waiters, s)
		v.parkLocked(s)
	}
	v.mu.Unlock()
}

// Fire releases every waiter, in arrival order, at the current virtual
// instant. Firing twice is a no-op. The caller must be a runnable
// registered worker (it does not block).
//
// c4h:hotpath
func (e *Event) Fire() {
	v := e.v
	v.mu.Lock()
	if !e.fired {
		e.fired = true
		for _, s := range e.waiters {
			v.pushLocked(s, v.now)
		}
		e.waiters = nil
	}
	v.mu.Unlock()
}

// sleeper is one parked worker. Its cond waits on its clock's mu, so a
// record is reused only on that clock: it belongs to one worker from
// getSleeperLocked until parkLocked puts it back on the free list.
type sleeper struct {
	deadline int64 // ns since the clock's epoch
	seq      uint64
	woken    bool
	cond     *sync.Cond
}

// getSleeperLocked takes a record from the free list, making one only
// when every record is in use, so a clock allocates one per concurrent
// sleeper. Caller holds v.mu.
func (v *Virtual) getSleeperLocked() *sleeper {
	n := len(v.free)
	if n == 0 {
		return &sleeper{cond: sync.NewCond(&v.mu)}
	}
	s := v.free[n-1]
	v.free = v.free[:n-1]
	s.woken = false
	return s
}

// before orders sleepers by deadline, then arrival.
func (s *sleeper) before(t *sleeper) bool {
	return s.deadline < t.deadline || (s.deadline == t.deadline && s.seq < t.seq)
}

// pushLocked files s under deadline and the next arrival number,
// sifting it up the heap. Caller holds v.mu.
func (v *Virtual) pushLocked(s *sleeper, deadline int64) {
	s.deadline, s.seq = deadline, v.seq
	v.seq++
	h := append(v.sleeper, s)
	i := len(h) - 1
	for p := (i - 1) / 2; i > 0 && s.before(h[p]); p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = s
	v.sleeper = h
}

// popLocked removes and returns the earliest sleeper, sifting the last
// one down from the root. Caller holds v.mu and the heap is not empty.
//
// c4h:hotpath
func (v *Virtual) popLocked() *sleeper {
	h := v.sleeper
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
	v.sleeper = h
	return top
}
