// Allocation-free hot paths the rule must accept: capacity-preallocated
// appends, buffer reuse via b[:0], allocations confined to cold
// failure blocks, value-typed composites, and unannotated functions.
package fixture

import "fmt"

type point struct {
	x, y int
}

// c4h:hotpath
func GoodPrealloc(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// c4h:hotpath
func GoodReuse(buf []byte, data []byte) []byte {
	return append(buf[:0], data...)
}

// c4h:hotpath
func GoodColdError(v int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("negative value %d", v)
	}
	return v * 2, nil
}

// c4h:hotpath
func GoodColdPanic(v int) int {
	if v < 0 {
		msg := fmt.Sprintf("negative value %d", v)
		panic(msg)
	}
	return v * 2
}

// c4h:hotpath
func GoodValue(a, b int) point {
	return point{x: a, y: b}
}

// c4h:hotpath
func GoodGiveUpError(n int) (int, error) {
	for i := 0; i < n; i++ {
		if i*i == n {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%d is not a square", n)
}

func Unannotated(n int) []int {
	return []int{n, n + 1}
}
