// A literal handed to Group.Go runs later, as an actor of its own, once
// the caller has given up its turn: the mutex the caller holds while it
// files the literal is not held while the literal sleeps. Group stands in
// for the package's own, which files fn on the clock with no go
// statement.
//
//c4hvet:pkg cloud4home/internal/vclock
package vclock

import "sync"

type Group struct{ queue []func() }

// Go files fn to run once the caller yields.
func (g *Group) Go(fn func()) { g.queue = append(g.queue, fn) }

type ticker struct {
	mu    sync.Mutex
	ticks int
	wake  chan struct{}
	loop  Group
}

func (t *ticker) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks = 0
	t.loop.Go(func() {
		t.sleep()
	})
}

func (t *ticker) sleep() { <-t.wake }
