package core

import (
	"time"

	"cloud4home/internal/vclock"
)

// domainSink is the one chunk-fed serial stage in a pull's destination
// dom0: each wire chunk's work starts once the chunk is there, the stage
// is ready and the chunks before it are done, concurrently with the rest
// of the wire. Its one user is an overlapped process's first service step
// (Config.Overlap, firstStep); pull sees only this type. After the pull
// the caller settles the work extending past the wire.
type domainSink struct {
	clock vclock.Clock
	price func(b int64) time.Duration // one chunk's work; without one the stage takes none
	begin func()                      // run once as the first wire into dst starts
	ready time.Time                   // when the first chunk's work can start
	done  time.Time                   // when the work on the bytes delivered so far ends
}

// onChunk is called from the wire's event loop with the clock standing at
// the instant b more bytes arrived in dom0.
func (ds *domainSink) onChunk(b int64) {
	if ds.price == nil {
		return
	}
	at := ds.clock.Now()
	if at.Before(ds.done) {
		at = ds.done
	}
	if at.Before(ds.ready) {
		at = ds.ready
	}
	ds.done = at.Add(ds.price(b))
}

// settle feeds the sink b bytes the wire did not stream, all at once; a
// nil sink or no bytes is a no-op.
func (ds *domainSink) settle(b int64) {
	if ds != nil && b > 0 {
		ds.onChunk(b)
	}
}
