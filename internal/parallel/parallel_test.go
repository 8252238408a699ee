package parallel

import (
	"sync/atomic"
	"testing"
)

func TestShardsForDependsOnlyOnSize(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{-1, 1},
		{0, 1},
		{1, 1},
		{shardBytes, 1},
		{shardBytes + 1, 2},
		{12 * shardBytes, 12},
		{1 << 40, maxShards},
	}
	for _, c := range cases {
		if got := ShardsFor(c.size); got != c.want {
			t.Errorf("ShardsFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestRunCoversEveryShardOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		const n = 37
		var counts [n]atomic.Int64
		Run(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunZeroShardsIsNoop(t *testing.T) {
	ran := false
	Run(4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("Run executed a shard for n=0")
	}
}

func TestRunMergeIsOrderIndependent(t *testing.T) {
	// Indexed slots make the merged result identical at any worker count.
	const n = 23
	ref := make([]int, n)
	Run(1, n, func(i int) { ref[i] = i * i })
	for _, workers := range []int{2, 4, 8} {
		got := make([]int, n)
		Run(workers, n, func(i int) { got[i] = i * i })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestSumAddsEveryShardOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		var counts [n]atomic.Int64
		got := Sum(workers, n, func(i int) int {
			counts[i].Add(1)
			return i + 1
		})
		if want := n * (n + 1) / 2; got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, c)
			}
		}
	}
	if got := Sum(4, 0, func(int) int { return 1 }); got != 0 {
		t.Fatalf("Sum over no shards = %d", got)
	}
}

// slots is what TestFanOutsDoNotAllocate's shards write: a package
// variable, so their literals capture nothing and cost nothing either.
var slots [16]int

// TestFanOutsDoNotAllocate: a fan-out's shared state is pooled, so Run
// and Sum allocate nothing of their own at any worker count (a caller's
// literal that captures variables is the caller's allocation).
func TestFanOutsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, workers := range []int{1, 2, 4, 16} {
		if n := testing.AllocsPerRun(100, func() {
			Run(workers, len(slots), func(i int) { slots[i] = i })
		}); n != 0 {
			t.Errorf("Run on %d workers: %v allocations, want 0", workers, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			slots[0] = Sum(workers, len(slots), func(i int) int { return slots[i] })
		}); n != 0 {
			t.Errorf("Sum on %d workers: %v allocations, want 0", workers, n)
		}
	}
}

func TestRangePartitionsExactly(t *testing.T) {
	for _, total := range []int{0, 1, 5, 64, 97} {
		for _, n := range []int{1, 2, 3, 7, 64} {
			prev := 0
			for i := 0; i < n; i++ {
				lo, hi := Range(total, n, i)
				if lo != prev {
					t.Fatalf("total=%d n=%d shard %d: lo=%d, want %d", total, n, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("total=%d n=%d shard %d: hi=%d < lo=%d", total, n, i, hi, lo)
				}
				prev = hi
			}
			if prev != total {
				t.Fatalf("total=%d n=%d: ranges cover %d", total, n, prev)
			}
		}
	}
}
