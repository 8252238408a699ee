//c4hvet:pkg cloud4home/internal/vclock
// Joins on a virtual-clock Event: the last worker fires it while still
// registered, and the spawner reads what the workers wrote only after
// Wait; a helper that spawns and waits on an Event before returning is
// synchronous, not an async wrapper. Virtual and Event stand in for the
// package's own.
package vclock

import "sync"

type Virtual struct{}

// Go runs fn on a new goroutine and returns at once.
func (v *Virtual) Go(fn func()) { go fn() }

type Event struct{}

func (e *Event) Fire() {}
func (e *Event) Wait() {}

func collectEventJoined(v *Virtual) int {
	results := make([]int, 4)
	done := &Event{}
	var mu sync.Mutex
	left := len(results)
	for i := range results {
		v.Go(func() {
			results[i] = i * i
			mu.Lock()
			left--
			last := left == 0
			mu.Unlock()
			if last {
				done.Fire()
			}
		})
	}
	done.Wait()
	return results[0]
}

func runJoined(v *Virtual, fn func()) {
	done := &Event{}
	v.Go(func() {
		fn()
		done.Fire()
	})
	done.Wait()
}

func useRunJoined(v *Virtual) int {
	n := 0
	runJoined(v, func() { n = 1 })
	return n
}
