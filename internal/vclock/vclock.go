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
// Three scheduler engines share that contract:
//
//   - the default engine keeps one global deadline heap and wakes
//     sleepers through a condition-variable broadcast;
//   - the sharded engine (NewVirtualSharded, enabled by
//     core.PerfConfig.SimShards) spreads sleepers round-robin over
//     per-shard heaps merged deterministically at each advance;
//   - the calendar engine (NewVirtualCalendar, enabled by
//     core.ScaleConfig.CalendarQueue) keeps sleepers in a calendar queue
//     — deadline-bucketed, amortised O(1) per event — and wakes each
//     sleeper through its own one-slot channel instead of broadcasting,
//     so an advance costs O(1) instead of O(parked workers).
//
// All engines wake exactly one sleeper per advance in (deadline, seq)
// order, so they produce bit-identical schedules; only the host-side cost
// per event differs. The heap stays the default because it is the fastest
// at the actor counts the benchmark runs: on c4h-perf's home-trace (six
// actors) the heap did 36.8k host ops/s, the sharded engine 35.4k and the
// calendar engine 31.8k (PR 12 prototype, lazy RNG on all three), so
// neither alternative has been promoted.
package vclock

import (
	"container/heap"
	"sort"
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
	mu       sync.Mutex
	cond     *sync.Cond
	now      time.Time
	active   int            // registered workers currently runnable
	sleeper  sleeperHeap    // default engine: one global heap
	shards   []sleeperHeap  // sharded engine when non-nil
	cal      *calendarQueue // calendar engine when non-nil
	targeted bool           // wake via per-sleeper channel, not broadcast
	seq      uint64         // tie-break so equal deadlines wake FIFO
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at epoch. The experiment
// harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	v := &Virtual{now: epoch}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// NewVirtualSharded returns a virtual clock whose sleeper queue is split
// over shards per-shard heaps with a deterministic k-way merge at every
// advance, so each push/pop works on a heap 1/shards the size. Schedules
// are bit-identical to NewVirtual at any shard count; only the
// wall-clock cost per event differs. Shard counts below one are clamped
// to one.
func NewVirtualSharded(epoch time.Time, shards int) *Virtual {
	if shards < 1 {
		shards = 1
	}
	v := NewVirtual(epoch)
	v.shards = make([]sleeperHeap, shards)
	return v
}

// NewVirtualCalendar returns a virtual clock backed by a calendar queue
// (deadline-bucketed ring, amortised O(1) insert/pop) with targeted
// single-sleeper wakeups: each advance hands the token to exactly the
// woken sleeper's channel instead of broadcasting to every parked
// worker. Schedules are bit-identical to NewVirtual; at city scale
// (10⁵–10⁶ queued events) advances stop costing O(parked workers).
func NewVirtualCalendar(epoch time.Time) *Virtual {
	v := NewVirtual(epoch)
	v.cal = newCalendarQueue(epoch)
	v.targeted = true
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
	var wake *sleeper
	if v.active == 0 {
		wake = v.advanceLocked()
	}
	v.mu.Unlock()
	if wake != nil {
		wake.signal()
	}
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
func (v *Virtual) Block(fn func()) {
	v.Done()
	defer v.Add(1)
	fn()
}

// enqueueLocked files a sleeper (deadline and seq already assigned) into
// whichever queue engine this clock runs. Caller holds v.mu.
//
// c4h:hotpath
func (v *Virtual) enqueueLocked(s *sleeper) {
	switch {
	case v.cal != nil:
		v.cal.insert(s)
	case v.shards != nil:
		heap.Push(&v.shards[s.seq%uint64(len(v.shards))], s)
	default:
		heap.Push(&v.sleeper, s)
	}
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
	v.enqueueLocked(s)
	v.active--
	var wake *sleeper
	if v.active == 0 {
		wake = v.advanceLocked()
	}
	if v.targeted {
		v.mu.Unlock()
		// Hand the token over outside the lock (chanhold discipline);
		// if the advance woke ourselves, skip the channel round-trip.
		if wake != nil && wake != s {
			wake.signal()
		}
		if wake != s {
			s.wait()
		}
		putSleeper(s)
		return
	}
	for !s.woken {
		v.cond.Wait()
	}
	v.mu.Unlock()
	putSleeper(s)
}

// advanceLocked jumps time to the earliest deadline and wakes exactly
// one sleeper — the earliest, FIFO among equal deadlines. Caller holds
// v.mu and v.active == 0. In targeted mode the woken sleeper is
// returned and the caller must signal it after releasing v.mu; in
// broadcast mode the condition variable is notified and nil returned.
//
// Waking one worker at a time (rather than every sleeper due at the
// instant) keeps concurrent workloads deterministic: at most one worker
// is runnable after the advance, so shared state (the network's
// per-operation RNG counter, job queues, resource active counts) is
// always touched in deadline order, never in Go-scheduler order. When
// the woken worker sleeps or finishes, the next sleeper due at the same
// instant wakes; virtual time never regresses.
//
// The sharded engine merges the shard heads and the calendar engine
// pops its earliest bucket entry — in every engine the popped sleeper is
// the global minimum by (deadline, seq), so the wake order (and
// therefore every downstream schedule) is invariant under the engine.
//
// c4h:hotpath
func (v *Virtual) advanceLocked() *sleeper {
	var s *sleeper
	switch {
	case v.cal != nil:
		s = v.cal.pop()
	case v.shards != nil:
		bi := -1
		var best *sleeper
		for i := range v.shards {
			if len(v.shards[i]) == 0 {
				continue
			}
			h := v.shards[i][0]
			if best == nil || h.deadline.Before(best.deadline) ||
				(h.deadline.Equal(best.deadline) && h.seq < best.seq) {
				best, bi = h, i
			}
		}
		if best == nil {
			return nil
		}
		heap.Pop(&v.shards[bi])
		s = best
	default:
		if v.sleeper.Len() == 0 {
			return nil
		}
		s = heap.Pop(&v.sleeper).(*sleeper)
	}
	if s == nil {
		return nil
	}
	if s.deadline.After(v.now) {
		v.now = s.deadline
	}
	s.woken = true
	v.active++
	if v.targeted {
		return s
	}
	v.cond.Broadcast()
	return nil
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
	var wake *sleeper
	if v.active == 0 {
		wake = v.advanceLocked()
	}
	if v.targeted {
		v.mu.Unlock()
		// wake can never be s here: s is parked on the event, not in the
		// deadline queue, until Fire enqueues it.
		if wake != nil {
			wake.signal()
		}
		s.wait()
		putSleeper(s)
		return
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
			v.enqueueLocked(s)
		}
		e.waiters = nil
	}
	v.mu.Unlock()
}

type sleeper struct {
	deadline time.Time
	dns      time.Duration // deadline minus calendar epoch (calendar engine)
	seq      uint64
	woken    bool
	index    int

	// Targeted-wakeup rendezvous: a private one-waiter condition
	// variable. Signalling one sleeper costs O(1), unlike the broadcast
	// engines' cond.Broadcast which wakes every parked worker per
	// advance.
	wmu   sync.Mutex
	wcond *sync.Cond
	ready bool
}

// signal hands the wake token to a parked sleeper. A sleeper is
// signalled at most once per park (advanceLocked pops it from the queue
// before anyone may signal it), and never blocks the signaller.
// Callers must not hold v.mu.
func (s *sleeper) signal() {
	s.wmu.Lock()
	s.ready = true
	s.wmu.Unlock()
	s.wcond.Signal()
}

// wait parks until signal (token semantics: signal-before-wait returns
// immediately). Callers must not hold v.mu.
func (s *sleeper) wait() {
	s.wmu.Lock()
	for !s.ready {
		s.wcond.Wait()
	}
	s.ready = false
	s.wmu.Unlock()
}

// sleeperPool recycles sleeper records: every Sleep used to allocate
// one, which made the scheduler itself the simulator's largest source of
// small objects. A sleeper is owned by exactly one goroutine between
// getSleeper and putSleeper, so pooling is race-free.
var sleeperPool = sync.Pool{New: func() any {
	s := &sleeper{}
	s.wcond = sync.NewCond(&s.wmu)
	return s
}}

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

// calendarQueue is a calendar-queue priority queue over sleepers: a ring
// of deadline buckets of fixed width, each holding its sleepers sorted
// descending by (deadline, seq) so the bucket minimum pops from the
// tail in O(1).
//
// Ordering invariant (the "wheel ordering invariant" relied on for
// byte-identical schedules): pop always returns the global minimum by
// (deadline, seq). Equal deadlines map to the same bucket, where they
// sit in seq order; across buckets the scan visits windows in
// increasing deadline order starting from the last popped deadline, and
// a bucket entry is only taken when its deadline falls inside the
// window currently being scanned, so no later bucket can hide an
// earlier deadline. If a whole lap finds nothing in-window (sparse,
// far-future events), a direct minimum over the bucket tails resolves
// the next event and the scan position jumps to it.
type calendarQueue struct {
	epoch   time.Time
	width   time.Duration // bucket width
	buckets [][]*sleeper
	size    int
	scan    time.Duration // lower bound on every queued dns
}

const (
	calInitialBuckets = 64
	calMaxBuckets     = 1 << 15
	calMinWidth       = time.Microsecond
)

func newCalendarQueue(epoch time.Time) *calendarQueue {
	return &calendarQueue{
		epoch:   epoch,
		width:   time.Millisecond,
		buckets: make([][]*sleeper, calInitialBuckets),
	}
}

// less orders sleepers by (deadline, seq) using the pre-computed
// epoch-relative deadline.
func calLess(a, b *sleeper) bool {
	if a.dns != b.dns {
		return a.dns < b.dns
	}
	return a.seq < b.seq
}

// insert files s by deadline. Amortised O(1): the resize policy keeps
// expected bucket occupancy constant.
//
// c4h:hotpath
func (q *calendarQueue) insert(s *sleeper) {
	s.dns = s.deadline.Sub(q.epoch)
	bi := q.bucketOf(s.dns)
	b := q.buckets[bi]
	// Descending order: binary-search the insertion point.
	i := sort.Search(len(b), func(i int) bool { return calLess(b[i], s) })
	if len(b) == cap(b) {
		nb := make([]*sleeper, len(b), 2*cap(b)+4)
		copy(nb, b)
		b = nb
	}
	b = b[:len(b)+1]
	copy(b[i+1:], b[i:len(b)-1])
	b[i] = s
	q.buckets[bi] = b
	if s.dns < q.scan {
		q.scan = s.dns
	}
	q.size++
	if q.size > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.resize()
	}
}

func (q *calendarQueue) bucketOf(dns time.Duration) int {
	b := int64(dns/q.width) % int64(len(q.buckets))
	if b < 0 {
		b += int64(len(q.buckets)) // deadlines before the epoch
	}
	return int(b)
}

// pop removes and returns the global (deadline, seq) minimum, or nil.
//
// c4h:hotpath
func (q *calendarQueue) pop() *sleeper {
	if q.size == 0 {
		return nil
	}
	n := len(q.buckets)
	pos := q.scan
	for i := 0; i < n; i++ {
		winEnd := pos - pos%q.width + q.width
		b := q.buckets[q.bucketOf(pos)]
		if len(b) > 0 {
			if s := b[len(b)-1]; s.dns < winEnd {
				q.buckets[q.bucketOf(pos)] = b[:len(b)-1]
				q.size--
				q.scan = s.dns
				return s
			}
		}
		pos = winEnd
	}
	// Sparse queue: nothing within a full lap of windows. Take the
	// minimum over bucket tails directly and jump the scan to it.
	var best *sleeper
	bi := -1
	for i := range q.buckets {
		b := q.buckets[i]
		if len(b) == 0 {
			continue
		}
		if t := b[len(b)-1]; best == nil || calLess(t, best) {
			best, bi = t, i
		}
	}
	b := q.buckets[bi]
	q.buckets[bi] = b[:len(b)-1]
	q.size--
	q.scan = best.dns
	return best
}

// resize doubles the bucket count and re-derives the width from the
// current deadline span so expected occupancy returns to O(1). The
// policy depends only on queue content, which is schedule-deterministic,
// so resizes (and therefore every subsequent bucket layout) are
// identical across runs.
func (q *calendarQueue) resize() {
	old := q.buckets
	var min, max time.Duration
	first := true
	for _, b := range old {
		for _, s := range b {
			if first || s.dns < min {
				min = s.dns
			}
			if first || s.dns > max {
				max = s.dns
			}
			first = false
		}
	}
	width := (max - min) / time.Duration(q.size)
	if width < calMinWidth {
		width = calMinWidth
	}
	q.width = width
	q.buckets = make([][]*sleeper, 2*len(old))
	q.size = 0
	for _, b := range old {
		for _, s := range b {
			q.insert(s)
		}
	}
}
