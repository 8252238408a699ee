// Allocation shapes inside `// c4h:hotpath` functions: composite
// literals, &T{}, new, growing appends, string concatenation, and
// interface boxing.
package fixture

import "errors"

type record struct {
	id   int
	name string
}

var global any

var errNegative = errors.New("negative")

// c4h:hotpath
func BadLiterals(n int) []int {
	xs := []int{1, 2, n}        // want "slice literal"
	m := map[string]int{"a": n} // want "map literal"
	_ = m
	return xs
}

// c4h:hotpath
func BadPointer(n int) *record {
	return &record{id: n} // want "heap allocation: &"
}

// c4h:hotpath
func BadNew() *record {
	return new(record) // want "heap allocation: new"
}

// c4h:hotpath
func BadAppend(xs []int, v int) []int {
	return append(xs, v) // want "growing append"
}

// c4h:hotpath
func BadConcat(a, b string) string {
	return a + b // want "string concatenation"
}

// c4h:hotpath
func BadBox(v int64) {
	global = v // want "interface boxing"
}

// A body that ends by returning an error is still hot up to that
// return.
//
// c4h:hotpath
func BadBeforeErrorReturn(n int) ([]int, error) {
	xs := []int{n} // want "slice literal"
	if n > 0 {
		return xs, nil
	}
	return nil, errNegative
}
