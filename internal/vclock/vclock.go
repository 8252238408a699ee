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
// sleepers, woken through a condition-variable broadcast, one sleeper per
// advance. It is the only engine because nothing measured needs another.
// On c4h-perf's home-trace (six actors) the heap did 36.8k host ops/s
// against 35.4k for a sharded k-way-merge engine and 31.8k for a calendar
// queue with targeted wakeups (PR 12 prototype, lazy RNG on all three).
// The calendar queue's one caller, the 1k/10k/100k-home city sweep, ran
// in 26/110/1016 ms on the heap against 26/122/1597 ms on the calendar
// queue with equal metrics (one sample each): a city built by
// cluster.NewCity starts no periodic monitors, so it has about one
// sleeper. Both alternatives produced bit-identical schedules, which made
// them second implementations rather than features; they were deleted in
// PR 17 and live on in git history for whoever brings a workload with
// thousands of concurrent sleepers.
package vclock

import (
	"container/heap"
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
	cond    *sync.Cond
	now     time.Time
	active  int         // registered workers currently runnable
	sleeper sleeperHeap // parked workers by (deadline, seq)
	seq     uint64      // tie-break so equal deadlines wake FIFO
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at epoch. The experiment
// harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	v := &Virtual{now: epoch}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
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
	s := getSleeper()
	v.mu.Lock()
	s.deadline = v.now.Add(d)
	s.seq = v.seq
	v.seq++
	heap.Push(&v.sleeper, s)
	v.active--
	if v.active == 0 {
		v.advanceLocked()
	}
	for !s.woken {
		v.cond.Wait()
	}
	v.mu.Unlock()
	putSleeper(s)
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
	if v.sleeper.Len() == 0 {
		return
	}
	s := heap.Pop(&v.sleeper).(*sleeper)
	if s.deadline.After(v.now) {
		v.now = s.deadline
	}
	s.woken = true
	v.active++
	v.cond.Broadcast()
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
	s := getSleeper()
	v.mu.Lock()
	if e.fired {
		v.mu.Unlock()
		putSleeper(s)
		return
	}
	e.waiters = append(e.waiters, s)
	v.active--
	if v.active == 0 {
		v.advanceLocked()
	}
	for !s.woken {
		v.cond.Wait()
	}
	v.mu.Unlock()
	putSleeper(s)
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
			s.deadline = v.now
			s.seq = v.seq
			v.seq++
			heap.Push(&v.sleeper, s)
		}
		e.waiters = nil
	}
	v.mu.Unlock()
}

type sleeper struct {
	deadline time.Time
	seq      uint64
	woken    bool
	index    int
}

// sleeperPool recycles sleeper records: every Sleep used to allocate
// one, which made the scheduler itself the simulator's largest source of
// small objects. A sleeper is owned by exactly one goroutine between
// getSleeper and putSleeper, so pooling is race-free.
var sleeperPool = sync.Pool{New: func() any { return &sleeper{} }}

// c4h:hotpath
func getSleeper() *sleeper {
	s := sleeperPool.Get().(*sleeper)
	s.woken = false
	return s
}

// c4h:hotpath
func putSleeper(s *sleeper) { sleeperPool.Put(s) }

type sleeperHeap []*sleeper

func (h sleeperHeap) Len() int { return len(h) }
func (h sleeperHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h sleeperHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *sleeperHeap) Push(x any) {
	s := x.(*sleeper)
	s.index = len(*h)
	*h = append(*h, s)
}
func (h *sleeperHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}
