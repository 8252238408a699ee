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
// shard completed.
func Run(workers, n int, fn func(shard int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Workers pull the next undispatched shard until none remain. Which
	// worker runs which shard is irrelevant to the result (indexed slots),
	// so a shared counter is all the coordination needed. Counter and wait
	// group are one struct so that the closure's capture is one heap object:
	// Run sits on the per-operation path of every kernel call.
	var st struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	work := func() {
		defer st.wg.Done()
		for i := int(st.next.Add(1)) - 1; i < n; i = int(st.next.Add(1)) - 1 {
			fn(i)
		}
	}
	st.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	st.wg.Wait()
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
