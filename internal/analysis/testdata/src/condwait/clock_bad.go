// The virtual clock's wake shape gone wrong: the per-sleeper cond is
// built in a composite literal, and the rule still ties it to the
// clock's mutex — a Wait without it and an unlocked wake are caught.
package fixture

import "sync"

type sleeper struct {
	woken bool
	cond  *sync.Cond
}

type clock struct {
	mu     sync.Mutex
	parked []*sleeper
}

func (c *clock) newSleeper() *sleeper {
	return &sleeper{cond: sync.NewCond(&c.mu)}
}

func (c *clock) sleep() {
	c.mu.Lock()
	s := c.newSleeper()
	c.parked = append(c.parked, s)
	c.mu.Unlock()
	for !s.woken {
		s.cond.Wait() // want "without holding its locker c.mu"
	}
}

func (c *clock) wake() {
	c.mu.Lock()
	s := c.parked[0]
	c.parked = c.parked[1:]
	c.mu.Unlock()
	s.woken = true // want "written here without holding its locker c.mu"
	s.cond.Signal()
}
