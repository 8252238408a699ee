//c4hvet:pkg cloud4home/internal/fixture

// A synchronous callback, as parallel.Run's: Run returns only after fn
// has run, so fn blocks with the caller's mutex held.
package fixture

import "sync"

func Run(n int, fn func(shard int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

type drain struct {
	mu sync.Mutex
	in chan int
}

func (d *drain) Drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	Run(2, func(int) { d.recv() }) // want "may block on a channel"
}

func (d *drain) recv() { <-d.in }
