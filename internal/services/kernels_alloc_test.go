package services

import (
	"runtime"
	"testing"
)

// allocatedPerRun reports the mean bytes one call of f allocates.
func allocatedPerRun(runs int, f func()) uint64 {
	f() // warm: goroutine stacks and pools the split may need
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestKernelOutputsAllocatedOnce pins the two regrowth bugs: ConvertVideo
// sized its output for len/2 body bytes but appended (len+1)/2, so every
// odd-length input re-allocated and re-copied the whole stream; and
// DetectFaces grew its hit list by doubling, allocating about four times
// what it returned. Both results are now made once, at their exact length.
func TestKernelOutputsAllocatedOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 1<<20 - 1, 1 << 20, 1<<20 + 1} {
		data := testPayload(int64(n), n)
		for _, parts := range []int{1, 2, 3} {
			out, err := convertVideo(data, parts)
			if err != nil {
				t.Fatal(err)
			}
			if want := 8 + (n+1)/2; len(out) != want || cap(out) != len(out) {
				t.Fatalf("x264 len=%d parts=%d: output len %d cap %d, want both %d", n, parts, len(out), cap(out), want)
			}
			hits, err := detectFaces(data, parts)
			if err != nil {
				t.Fatal(err)
			}
			if cap(hits) != len(hits) {
				t.Fatalf("fdet len=%d parts=%d: %d hits in a list of capacity %d", n, parts, len(hits), cap(hits))
			}
		}
	}

	// Byte budgets, at the part count the host would pick and at 1: the
	// result, an eighth more for the allocator's size-class rounding, and
	// 4 KB for the split's bookkeeping (a closure and a wait group per
	// fan-out) on top of the detector's one-bit-per-window map. The bugs
	// above cost 1.6× and 4× the result.
	const slack = 4 << 10
	data := testPayload(9, 1<<20+1)
	for _, parts := range []int{1, hostParts(len(data))} {
		var out []byte
		got := allocatedPerRun(10, func() { out, _ = convertVideo(data, parts) })
		if budget := uint64(len(out) + len(out)/8 + slack); got > budget {
			t.Errorf("x264 parts=%d: %d B/op for a %d-byte output, budget %d", parts, got, len(out), budget)
		}
		var hits []int
		got = allocatedPerRun(10, func() { hits, _ = detectFaces(data, parts) })
		if budget := uint64(9*len(hits) + len(data)/(8*detectWindow) + slack); got > budget {
			t.Errorf("fdet parts=%d: %d B/op for %d hits, budget %d", parts, got, len(hits), budget)
		}
	}
}
