// Package parallel provides the deterministic fan-out behind the services
// kernels' host split, and the shard count the compute plane's simulated
// sharded execution reports. A caller splits its work into indexed shards
// and every shard writes its result into its own slot, so the merged
// output is byte-identical to a sequential run at any worker count. Run is
// pure CPU: it never touches a clock, so it is safe to call from a
// virtual-clock worker (the goroutines finish on their own and the
// caller's wait does not need the clock to advance).
package parallel

import (
	"sync"
	"sync/atomic"
)

// shardBytes is the shard granularity: one shard per mebibyte of input.
const shardBytes = 1 << 20

// maxShards bounds the shard count so dispatch overhead stays small for
// very large inputs.
const maxShards = 64

// ShardsFor returns the simulated shard count for an input of the given
// size. The count depends only on the size, never on a worker count.
func ShardsFor(size int64) int {
	if size <= 0 {
		return 1
	}
	n := (size + shardBytes - 1) / shardBytes
	if n > maxShards {
		n = maxShards
	}
	return int(n)
}

// Run executes fn(shard) for every shard in [0, n), on at most workers
// goroutines, the caller's being one of them. workers ≤ 1 (or n ≤ 1)
// degrades to a plain sequential loop. fn must confine its writes to
// per-shard state (indexed result slots); Run returns only after every
// shard completed. Run itself allocates nothing: its fan-out state is
// pooled.
func Run(workers, n int, fn func(shard int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := fans.Get().(*fan)
	f.fn = fn
	f.run(workers, n)
}

// Sum is Run for shards that each return a count, and returns the counts'
// sum. Integer addition does not depend on the order the shards finish
// in, so the sum is the same at every worker count.
func Sum(workers, n int, fn func(shard int) int) int {
	if workers = min(workers, n); workers <= 1 {
		sum := 0
		for i := 0; i < n; i++ {
			sum += fn(i)
		}
		return sum
	}
	f := fans.Get().(*fan)
	f.count = fn
	return f.run(workers, n)
}

// fan is one fan-out's shared state: workers pull the next undispatched
// shard until none remain. Which worker runs which shard is irrelevant to
// the result (indexed slots, or a sum), so a shared counter is all the
// coordination needed. Exactly one of fn and count is set.
type fan struct {
	next  atomic.Int64
	sum   atomic.Int64
	wg    sync.WaitGroup
	n     int
	fn    func(shard int)
	count func(shard int) int
	work  func() // f.loop, bound once so that `go f.work()` allocates nothing
}

// fans recycles fan-outs: Run sits on the per-operation path of every
// kernel call.
var fans = sync.Pool{New: func() any {
	f := new(fan)
	f.work = f.loop
	return f
}}

// run runs shards [0, n) on workers goroutines, the caller's being one,
// returns the fan to the pool and the shards' sum.
func (f *fan) run(workers, n int) int {
	f.n = n
	f.wg.Add(1) // the caller's own share
	for w := 1; w < workers; w++ {
		f.wg.Add(1)
		go f.work()
	}
	f.work()
	f.wg.Wait()
	sum := int(f.sum.Load())
	f.next.Store(0)
	f.sum.Store(0)
	f.fn, f.count = nil, nil // a pooled fan pins no caller state
	fans.Put(f)
	return sum
}

func (f *fan) loop() {
	defer f.wg.Done()
	for i := int(f.next.Add(1)) - 1; i < f.n; i = int(f.next.Add(1)) - 1 {
		if f.count != nil {
			f.sum.Add(int64(f.count(i)))
		} else {
			f.fn(i)
		}
	}
}

// Range returns the half-open slice [lo, hi) of total items owned by
// shard i of n, splitting as evenly as possible with remainders spread
// over the leading shards. Concatenating the ranges in shard order
// reconstructs [0, total) exactly.
func Range(total, n, i int) (lo, hi int) {
	if n <= 0 || total <= 0 {
		return 0, 0
	}
	base, rem := total/n, total%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
