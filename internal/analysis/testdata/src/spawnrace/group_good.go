// A Group join: the spawner reads what the spawned functions wrote only
// after g.Wait. Group stands in for the package's own.
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

func collectGroupJoined() int {
	results := make([]int, 4)
	g := &Group{}
	for i := range results {
		g.Go(func() { results[i] = i * i })
	}
	g.Wait()
	return results[0]
}
