// The virtual clock's wake shape: each pooled sleeper carries its own
// cond, built in a composite literal around the clock's mutex, and
// waits on it in a predicate loop the advance flips under that mutex.
package fixture

import "sync"

type sleeper struct {
	woken bool
	cond  *sync.Cond
}

type clock struct {
	mu     sync.Mutex
	free   []*sleeper
	parked []*sleeper
}

func (c *clock) getSleeperLocked() *sleeper {
	n := len(c.free)
	if n == 0 {
		return &sleeper{cond: sync.NewCond(&c.mu)}
	}
	s := c.free[n-1]
	c.free = c.free[:n-1]
	s.woken = false
	return s
}

func (c *clock) parkLocked(s *sleeper) {
	for !s.woken {
		s.cond.Wait()
	}
	c.free = append(c.free, s)
}

func (c *clock) advanceLocked() {
	s := c.parked[0]
	c.parked = c.parked[1:]
	s.woken = true
	s.cond.Signal()
}

func (c *clock) sleep() {
	c.mu.Lock()
	s := c.getSleeperLocked()
	c.parked = append(c.parked, s)
	c.advanceLocked()
	c.parkLocked(s)
	c.mu.Unlock()
}
