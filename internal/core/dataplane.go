package core

import (
	"time"

	"cloud4home/internal/netsim"
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
// drain time extending past it via tail().
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

// tail is the drain time still owed once the wire phase has completed.
func (ds *domainSink) tail() time.Duration {
	return ds.drainDone.Sub(ds.clock.Now())
}

// cacheGet consults the dom0 cache for a remote object, counting the
// outcome. The bool reports a hit; a hit's data is nil for sparse objects.
func (n *Node) cacheGet(meta ObjectMeta) ([]byte, bool) {
	if n.dataCache == nil {
		return nil, false
	}
	data, ok := n.dataCache.get(meta.Name)
	if ok {
		n.ops.cacheHits.Add(1)
	} else {
		n.ops.cacheMisses.Add(1)
	}
	return data, ok
}

// cacheFill records a remotely fetched payload in the dom0 cache.
func (n *Node) cacheFill(meta ObjectMeta, data []byte) {
	if n.dataCache != nil {
		n.dataCache.put(meta.Name, data, meta.Size)
	}
}

// fetchStriped pulls the object from every live payload holder in
// parallel, one contiguous range per holder, and reassembles the payload
// in dom0. A holder crashing mid-stripe aborts only its range: the
// missing bytes are re-fetched from the first surviving holder. Reports
// ok=false when fewer than two live holders exist — the caller then uses
// the sequential single-holder path.
func (n *Node) fetchStriped(meta ObjectMeta, sink *domainSink) (data []byte, source string, interNode time.Duration, ok bool) {
	var holders []*Node
	for _, peer := range n.home.wholeCopies(meta) {
		if peer != n {
			holders = append(holders, peer)
		}
	}
	if len(holders) < 2 || meta.Size <= 0 {
		return nil, "", 0, false
	}

	// One parallel request message to each holder (charged as overlapping
	// deliveries), then equal contiguous ranges, one per holder.
	k := len(holders)
	interNode += n.home.net.MessageAll(n.lanPathTo(holders[0]), k)
	ranges := make([]int64, k)
	base := meta.Size / int64(k)
	for i := range ranges {
		ranges[i] = base
	}
	ranges[k-1] += meta.Size - base*int64(k)

	reqs := make([]netsim.TransferReq, k)
	for i, h := range holders {
		reqs[i] = netsim.TransferReq{Path: h.lanPathTo(n), Size: ranges[i], Cancel: n.holderGone(h)}
		if sink != nil {
			reqs[i].Chunk = sink.chunk
			if i == 0 {
				// Only the first range is an in-order prefix the guest can
				// drain while the wire still runs; later ranges settle after
				// the wire below.
				reqs[i].OnChunk = sink.onChunk
			}
		}
	}
	statuses, wall, err := n.home.net.TransferSet(reqs)
	if err != nil {
		return nil, "", 0, false
	}
	interNode += wall

	// Survivors serve the fallback for any aborted range.
	var survivor *Node
	for i, st := range statuses {
		if !st.Aborted {
			survivor = holders[i]
			break
		}
	}
	if survivor == nil {
		return nil, "", 0, false
	}
	var refetch int64
	for i, st := range statuses {
		if st.Aborted {
			refetch += ranges[i] - st.Moved
		}
	}
	if refetch > 0 {
		interNode += n.home.net.Transfer(survivor.lanPathTo(n), refetch)
		if sink != nil {
			sink.onChunk(refetch)
		}
	}
	if sink != nil {
		// Ranges beyond the first drain once the whole prefix is present,
		// which in practice is when the wire completes. The sink has seen
		// stripe 0's streamed bytes plus any refetch; settle the rest now.
		if rest := meta.Size - statuses[0].Moved - refetch; rest > 0 {
			sink.onChunk(rest)
		}
	}

	// Reassemble from the live holders' copies: each range from its own
	// holder, aborted ranges from the survivor. Every holder has the full
	// object, so ranges index into its copy directly. Sparse objects (nil
	// payloads) reassemble to nil.
	var out []byte
	off := int64(0)
	for i, st := range statuses {
		src := holders[i]
		if st.Aborted {
			src = survivor
		}
		_, full, err := src.store.GetRef(meta.Name)
		if err != nil {
			return nil, "", 0, false
		}
		if full != nil {
			if out == nil {
				out = make([]byte, meta.Size)
			}
			copy(out[off:off+ranges[i]], full[off:off+ranges[i]])
		}
		off += ranges[i]
	}
	return out, "striped:" + survivor.addr, interNode, true
}
