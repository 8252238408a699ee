// A Group join that does not order the access: the spawner reads what
// the spawned function writes between g.Go and g.Wait. Group stands in
// for the package's own.
//
//c4hvet:pkg cloud4home/internal/vclock
package vclock

import "sync"

type Group struct{ wg sync.WaitGroup }

// Go runs fn on a new goroutine and returns at once.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

func (g *Group) Wait() { g.wg.Wait() }

func readBeforeGroupWait() int {
	n := 0
	g := &Group{}
	g.Go(func() { n = 42 })
	got := n // want "no join or common lock"
	g.Wait()
	return got
}
