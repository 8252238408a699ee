package core

import (
	"time"

	"cloud4home/internal/vclock"
	"cloud4home/internal/xenchan"
)

// domainSink streams wire chunks into the guest-facing channel as they
// arrive, modelling the pipelined fetch: each chunk's drain is scheduled
// behind the previous one (the ring is serial), but concurrently with the
// rest of the wire transfer. After the wire phase the caller settles the
// drain time extending past it.
type domainSink struct {
	pl    *xenchan.Pipeline
	clock vclock.Clock
	// chunk is the page-ring capacity — the granularity the wire phase is
	// asked to deliver at.
	chunk int64
	// drainDone is when the serial dom0→guest drain finishes the bytes
	// delivered so far.
	drainDone time.Time
	// cost accumulates the full modeled drain cost, reported as the
	// breakdown's InterDomain figure.
	cost time.Duration
	used bool
}

func newDomainSink(chn *xenchan.Channel, clock vclock.Clock) *domainSink {
	pl, err := chn.StartPipeline()
	if err != nil {
		return nil
	}
	cfg := chn.Config()
	return &domainSink{
		pl:    pl,
		clock: clock,
		chunk: int64(cfg.PageSize) * int64(cfg.NumPages),
	}
}

// onChunk is called from the wire's event loop with the clock standing at
// the instant b more bytes arrived in dom0.
func (ds *domainSink) onChunk(b int64) {
	now := ds.clock.Now()
	if ds.drainDone.Before(now) {
		ds.drainDone = now
	}
	c := ds.pl.ChunkCost(b)
	ds.cost += c
	ds.drainDone = ds.drainDone.Add(c)
	ds.used = true
}

// settle feeds the sink b bytes the wire did not stream, all at once; a
// nil sink or no bytes is a no-op.
func (ds *domainSink) settle(b int64) {
	if ds != nil && b > 0 {
		ds.onChunk(b)
	}
}
