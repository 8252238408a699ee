//c4hvet:pkg cloud4home/internal/vclock
// Event joins that do not order the access: a result read before Wait,
// a Wait on an Event no worker fires, and a helper that fires an Event
// but returns without waiting on it (an async wrapper, so its caller
// races the callback). Virtual and Event stand in for the package's own.
package vclock

type Virtual struct{}

// Go runs fn on a new goroutine and returns at once.
func (v *Virtual) Go(fn func()) { go fn() }

type Event struct{}

func (e *Event) Fire() {}
func (e *Event) Wait() {}

func readBeforeWait(v *Virtual) int {
	n := 0
	done := &Event{}
	v.Go(func() {
		n = 42
		done.Fire()
	})
	got := n // want "no join or common lock"
	done.Wait()
	return got
}

func waitOnAnotherEvent(v *Virtual) int {
	n := 0
	done, other := &Event{}, &Event{}
	v.Go(func() {
		n = 42
		done.Fire()
	})
	other.Wait()
	return n // want "no join or common lock"
}

func runUnjoined(v *Virtual, fn func()) {
	done := &Event{}
	v.Go(func() {
		fn()
		done.Fire()
	})
}

func useRunUnjoined(v *Virtual) int {
	n := 0
	runUnjoined(v, func() { n = 1 })
	return n // want "no join or common lock"
}
