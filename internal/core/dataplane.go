package core

import (
	"time"

	"cloud4home/internal/vclock"
	"cloud4home/internal/xenchan"
)

// DataPlaneConfig enables the concurrent data-plane features. The zero
// value reproduces the paper's sequential behaviour exactly: one holder,
// whole-object transfers, inter-node and inter-domain phases charged
// back-to-back, no dom0 cache.
type DataPlaneConfig struct {
	// StripedFetch splits large fetches into contiguous ranges pulled from
	// every live payload holder in parallel, reassembling in dom0. Needs
	// DataReplicas > 0 to have more than one holder to stripe across.
	StripedFetch bool
	// Pipelined overlaps the inter-node wire phase with the dom0→guest
	// channel drain at page-ring granularity, so large fetches observe
	// Total < DHTLookup + InterNode + InterDomain.
	Pipelined bool
	// DataReplicas is how many extra best-effort payload copies a store
	// places in peers' voluntary bins beside the primary copy.
	DataReplicas int
	// CacheBytes bounds the dom0 payload cache; it is further capped by
	// the node's voluntary bin. 0 disables the cache.
	CacheBytes int64
}

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
