package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cloud4home/internal/erasure"
	"cloud4home/internal/netsim"
	"cloud4home/internal/vclock"
)

// This file is the one way a payload stored in this home reaches a dom0
// over the LAN: a fetch, the process path's input move and a repair's
// gather are each one pull. A pull climbs a ladder of rungs, always in
// this order: a whole copy already in the destination's dom0 (the
// primary, or a listed replica it holds), the dom0 cache and then the
// coalesced flight (CacheBytes, CoalesceFetch), ranges striped over every
// remote whole copy (StripedFetch), the primary copy (the paper's one
// path, §III-B), then under Config.Fallback a surviving whole copy or k
// shards — tried again without any holder that dies mid-pull — and the
// cloud. A rung builds attempts, plain data; only the executor sends the
// request round, runs the transfer, begins and feeds the domainSink,
// charges the FetchBreakdown, counts retries and reconstructions and
// fills the dom0 cache.

// ladder is the set of rungs a pull may climb.
type ladder uint8

const (
	rungHere ladder = 1 << iota
	rungCache
	rungStriped
	rungPrimary
	rungPieces
	rungCloud
)

// fetchLadder is the ladder this node's fetches climb. The input move
// climbs it without the striped rung and the cache rung, which is this
// node's own dom0 cache and flight.
func (n *Node) fetchLadder() ladder {
	l := rungHere | rungCache | rungPrimary
	if n.home.cfg.StripedFetch {
		l |= rungStriped
	}
	if n.home.cfg.Fallback {
		l |= rungPieces | rungCloud
	}
	return l
}

// source is one member of an attempt, bytes [off, off+size) of bin on
// holder (index is its position in the code), and how it fared: the
// borrow of the holder's copy, the bytes moved, and whether the holder
// died mid-transfer or its copy was gone.
type source struct {
	holder    *Node
	bin       string
	index     int
	off, size int64

	data    []byte
	moved   int64
	aborted bool
}

// join is how an attempt's members become the payload.
type join uint8

const (
	borrowWhole  join = iota // the one member's whole copy, as the store's borrow
	copyRanges               // each member's range of its whole copy
	decodeShards             // k coded shards through erasure.Reconstruct
)

// onAbort is what an attempt does once a member is aborted.
type onAbort uint8

const (
	climb     onAbort = iota // charge the wire time to Retries, leave the rung
	retryRung                // charge the whole attempt to Retries, try the rung without the dead
	refetch                  // pull the aborted remainder from the first survivor, as InterNode
)

// attempt is one try at a rung. chargeRound counts the request round in
// InterNode (striped ranges; elsewhere it is in no column). poll has the
// remote members poll for their holder's death at chunk boundaries.
// stream feeds the first member's chunks, an in-order prefix of the
// payload, into the sink as they arrive; the rest settles at once when
// the payload is whole. readOnRequest has the holders read their copies
// as the request arrives, so a copy deleted mid-transfer still arrives
// (the primary); otherwise they read once the wire is done.
type attempt struct {
	srcs    []source
	join    join
	onAbort onAbort

	chargeRound, poll, stream, readOnRequest bool
}

// pull brings meta's payload into dst's dom0 — this node's for a fetch
// or a repair, the target's for the process path's input move — climbing
// the rungs of l in order until one delivers; this node sends the
// requests. A non-nil sink, which only an overlapped input move passes
// (its first step), sees the payload stream in. The payload is a
// read-only borrow, as everywhere in core. A ladder with the primary
// rung counts climbing past the primary in FetchRetries and, pulled over
// a wire into this dom0, leaves the payload in the dom0 cache.
func (n *Node) pull(dst *Node, meta ObjectMeta, l ladder, sink *domainSink, bd *FetchBreakdown) ([]byte, string, error) {
	var gone []string // holders that died mid-pull: never asked again
	for r := rungHere; r <= rungCloud; r <<= 1 {
		if l&r == 0 {
			continue
		}
		if r == rungCache {
			return n.cached(meta, l&^(rungHere|rungCache), bd)
		}
		if r == rungPieces && l&rungPrimary != 0 {
			n.ops.FetchRetries++
		}
		last := l < r<<1 // a failure here is the pull's
		// A rung is tried again while its last attempt lost holders.
		for tried := -1; tried < len(gone); {
			tried = len(gone)
			var data []byte
			var src string
			if r == rungCloud {
				data, src = n.pullCloud(dst, meta, sink, bd)
			} else {
				var one [1]source
				a, err := n.attemptAt(r, dst, meta, gone, sink, one[:0])
				if err != nil && last {
					return nil, "", err
				}
				if len(a.srcs) == 0 {
					break
				}
				if data, src, err = n.run(dst, meta, &a, sink, bd, &gone); err != nil && last {
					return nil, "", err
				}
			}
			if src != "" {
				if r > rungHere && l&rungPrimary != 0 && dst == n && n.dataCache != nil {
					n.dataCache.put(meta.Name, data, meta.Size)
				}
				return data, src, nil
			}
		}
	}
	return nil, "", fmt.Errorf("%w: %q (no surviving copy)", ErrObjectNotFound, meta.Name)
}

// fetchFlight is one in-flight pull other fetches of the object may join;
// its fields are written by the leader before Fire and read-only
// afterwards.
type fetchFlight struct {
	ev   *vclock.Event
	data []byte
	src  string
	err  error
}

// cached is the cache rung of a fetch into n's dom0: a hit in the dom0
// cache, else, with CoalesceFetch on, the object's flight. The first
// fetch leads a new flight and climbs the rest of the ladder, l; a later
// one parks on the flight until the leader's bytes arrive — so its
// inter-node time is exactly the remaining duration of the shared
// transfer — then shares the leader's borrowed payload.
func (n *Node) cached(meta ObjectMeta, l ladder, bd *FetchBreakdown) ([]byte, string, error) {
	if n.dataCache != nil {
		if data, hit := n.dataCache.get(meta.Name); hit { // nil for sparse objects
			n.ops.CacheHits++
			return data, "cache:" + n.addr, nil
		}
		n.ops.CacheMisses++
	}
	if !n.home.cfg.CoalesceFetch {
		return n.pull(n, meta, l, nil, bd)
	}
	f, follower := n.flights[meta.Name]
	if !follower {
		f = &fetchFlight{ev: n.clock.NewEvent()}
		if n.flights == nil {
			n.flights = make(map[string]*fetchFlight)
		}
		n.flights[meta.Name] = f
	}
	if follower {
		start := n.clock.Now()
		f.ev.Wait()
		n.ops.CoalescedFetches++
		bd.InterNode += n.clock.Now().Sub(start)
		return f.data, f.src, f.err
	}
	f.data, f.src, f.err = n.pull(n, meta, l, nil, bd)
	// Unregister before firing: fetches arriving after completion start a
	// fresh flight instead of reading a finished one.
	delete(n.flights, meta.Name)
	f.ev.Fire()
	return f.data, f.src, f.err
}

// attemptAt builds rung r's next attempt into dst on buf. No members
// means the rung has nothing (left) to try; err then says why, for the
// primary.
func (n *Node) attemptAt(r ladder, dst *Node, meta ObjectMeta, gone []string, sink *domainSink, buf []source) (attempt, error) {
	// A whole copy polls for its holder's death only when it streams into
	// a sink with Fallback on; otherwise its modeled wire runs to the end.
	whole := func(h *Node, abort onAbort, readOnRequest bool) attempt {
		return attempt{
			srcs: append(buf, source{holder: h, bin: meta.Name, size: meta.Size}),
			join: borrowWhole, poll: sink != nil && n.home.cfg.Fallback, stream: true,
			readOnRequest: readOnRequest, onAbort: abort,
		}
	}
	switch r {
	case rungHere:
		if meta.Location != dst.addr && (len(meta.Replicas) == 0 || !dst.store.Has(meta.Name)) {
			return attempt{}, nil
		}
		return whole(dst, climb, true), nil
	case rungStriped:
		a := attempt{join: copyRanges, chargeRound: true, poll: true, stream: true, onAbort: refetch}
		for _, h := range n.home.wholeCopies(meta) {
			if h != dst {
				a.srcs = append(a.srcs, source{holder: h, bin: meta.Name})
			}
		}
		k := int64(len(a.srcs))
		if k < 2 || meta.Size <= 0 {
			return attempt{}, nil
		}
		// Equal contiguous ranges, one per holder; the last takes the rest.
		for i := range a.srcs {
			a.srcs[i].off, a.srcs[i].size = int64(i)*(meta.Size/k), meta.Size/k
		}
		a.srcs[k-1].size = meta.Size - a.srcs[k-1].off
		return a, nil
	case rungPrimary:
		peer, ok := n.home.Node(meta.Location)
		if !ok {
			return attempt{}, fmt.Errorf("%w: %q (holder %q gone)", ErrObjectNotFound, meta.Name, meta.Location)
		}
		return whole(peer, climb, true), nil
	}
	// rungPieces: one whole copy (primary first, then replicas), else the
	// first k live shards.
	for _, w := range n.home.wholeCopies(meta) {
		if !slices.Contains(gone, w.addr) {
			return whole(w, retryRung, false), nil
		}
	}
	if !meta.coded() {
		return attempt{}, nil
	}
	a := attempt{join: decodeShards, poll: true, onAbort: retryRung}
	for _, p := range n.home.livePieces(meta) {
		if !slices.Contains(gone, p.addr) && len(a.srcs) < meta.ErasureK {
			a.srcs = append(a.srcs, source{holder: p.node, bin: p.bin, index: p.index, size: meta.pieceSize()})
		}
	}
	if len(a.srcs) < meta.ErasureK {
		return attempt{}, nil
	}
	return a, nil
}

// run makes one attempt into dst and reports its source, "" when it did
// not deliver; holders not to be asked again are added to gone.
func (n *Node) run(dst *Node, meta ObjectMeta, a *attempt, sink *domainSink, bd *FetchBreakdown, gone *[]string) ([]byte, string, error) {
	start := n.clock.Now()
	var interNode time.Duration
	// One request per remote member, delivered concurrently.
	var to *Node
	k := 0
	for _, s := range a.srcs {
		if s.holder != dst {
			to, k = cmp.Or(to, s.holder), k+1
		}
	}
	if k > 0 {
		if d := n.home.net.MessageAll(n.lanPathTo(to), k); a.chargeRound {
			interNode += d
		}
	}
	// The holders read their copies; the first member whose copy is gone
	// is aborted, and lost says why.
	var lost error
	read := func() {
		for i := range a.srcs {
			if s := &a.srcs[i]; !s.aborted && lost == nil {
				if _, s.data, lost = s.holder.store.GetRef(s.bin); lost != nil {
					s.aborted, lost = true, fmt.Errorf("core: fetch %q from %s: %w", meta.Name, s.holder.addr, lost)
				}
			}
		}
	}
	if a.readOnRequest {
		read()
	}
	streaming := a.stream && sink != nil
	wall := n.transfer(dst, a, sink, streaming)
	if !a.readOnRequest {
		read()
	}

	survivor, dead, missing := -1, lost != nil, int64(0)
	for i, s := range a.srcs {
		if s.aborted {
			dead, missing = true, missing+s.size-s.moved
		} else if survivor < 0 {
			survivor = i
		}
	}
	switch {
	case !dead:
	case a.onAbort == climb:
		bd.Retries += wall
		return nil, "", cmp.Or(lost, fmt.Errorf("core: fetch %q from %s: holder gone", meta.Name, a.srcs[0].holder.addr))
	case a.onAbort == retryRung:
		bd.Retries += n.clock.Now().Sub(start)
		for _, s := range a.srcs {
			if s.aborted {
				*gone = append(*gone, s.holder.addr)
			}
		}
		return nil, "", nil
	case lost != nil || survivor < 0: // a range's copy is gone, or every holder
		return nil, "", nil
	default: // refetch
		interNode += n.home.net.Transfer(a.srcs[survivor].holder.lanPathTo(dst), missing)
	}

	var data []byte
	var src string
	switch a.join {
	case borrowWhole:
		data, src = a.srcs[0].data, a.srcs[0].holder.addr
	case copyRanges:
		// Every member holds the full object, so a range indexes its copy
		// directly; aborted ranges come from the survivor's. Sparse copies
		// (nil payloads) reassemble to nil.
		from := a.srcs[survivor]
		for _, s := range a.srcs {
			if s.aborted {
				s.data = from.data
			}
			if s.data != nil {
				if data == nil {
					data = make([]byte, meta.Size)
				}
				copy(data[s.off:s.off+s.size], s.data[s.off:s.off+s.size])
			}
		}
		src = "striped:" + from.holder.addr
	case decodeShards:
		idxs, shards := make([]int, len(a.srcs)), make([][]byte, len(a.srcs))
		for i, s := range a.srcs {
			idxs[i], shards[i] = s.index, s.data
		}
		if !slices.ContainsFunc(shards, func(b []byte) bool { return b == nil }) { // sparse shards decode to nil
			var err error
			if data, err = erasure.Reconstruct(idxs, shards, meta.ErasureK, meta.ErasureN, meta.Size); err != nil {
				return nil, "", err
			}
		}
		n.ops.ShardReconstructs++
		src = fmt.Sprintf("erasure:%d-of-%d", meta.ErasureK, meta.ErasureN)
	}
	// What the first member did not stream (all of a decoded payload)
	// drains once the payload is whole.
	rest := meta.Size
	if streaming {
		rest -= a.srcs[0].moved
	}
	sink.settle(rest)
	bd.InterNode += interNode + wall
	return data, src, nil
}

// transfer runs an attempt's wire phase into dst for its live remote
// members, recording how each fared. A single member already in dst
// crosses no wire; one that nothing cancels and no sink watches goes
// through netsim's Transfer. Neither allocates. Any other set runs as one
// TransferSet, which first runs the sink's begin hook; it rejects only
// malformed paths, which lanPathTo never builds; were it to, every member
// would count as aborted.
//
// c4h:hotpath
func (n *Node) transfer(dst *Node, a *attempt, sink *domainSink, streaming bool) time.Duration {
	if s := &a.srcs[0]; len(a.srcs) == 1 && (s.holder == dst || !s.aborted && !a.poll && !streaming) {
		s.moved = s.size
		if s.holder == dst {
			return 0 // already in dst's dom0
		}
		return n.home.net.Transfer(s.holder.lanPathTo(dst), s.size)
	}
	reqs := make([]netsim.TransferReq, 0, len(a.srcs))
	for i := range a.srcs {
		s := &a.srcs[i]
		if s.holder == dst {
			s.moved = s.size // already in dst's dom0
		}
		if s.holder == dst || s.aborted {
			continue
		}
		req := netsim.TransferReq{Path: s.holder.lanPathTo(dst), Size: s.size}
		if h := s.holder; a.poll {
			req.Cancel = func() bool { _, alive := n.home.Node(h.addr); return !alive }
		}
		if streaming && i == 0 {
			req.OnChunk = sink.onChunk
		}
		reqs = append(reqs, req)
	}
	if len(reqs) > 0 && sink != nil && sink.begin != nil {
		sink.begin()
		sink.begin = nil
	}
	statuses, wall, err := n.home.net.TransferSet(reqs)
	if err != nil {
		statuses = make([]netsim.TransferStatus, len(reqs))
		for i := range statuses {
			statuses[i].Aborted = true
		}
	}
	for i := range a.srcs {
		if s := &a.srcs[i]; s.holder != dst && !s.aborted {
			s.moved, s.aborted, statuses = statuses[0].Moved, statuses[0].Aborted, statuses[1:]
		}
	}
	return wall
}

// pullCloud is the cloud rung, reporting its source, "" when it did not
// deliver. Whether the cloud holds a copy is not knowable for free — a
// real S3 endpoint answers nothing without a round trip — so it asks with
// a charged Stat, never the free Has oracle, and the probe is retry time
// whatever it answers.
func (n *Node) pullCloud(dst *Node, meta ObjectMeta, sink *domainSink, bd *FetchBreakdown) ([]byte, string) {
	cloud, err := n.home.backendFor(meta.Backend)
	if err != nil {
		return nil, ""
	}
	start := n.clock.Now()
	has := n.cloudProbe(cloud, meta.Name)
	bd.Retries += n.clock.Now().Sub(start)
	if !has {
		return nil, ""
	}
	start = n.clock.Now()
	if _, data, d, err := cloud.FetchObject(dst.nic, meta.Name); err == nil {
		sink.settle(meta.Size)
		bd.InterNode += d
		return data, cloud.URL(meta.Name)
	}
	bd.Retries += n.clock.Now().Sub(start)
	return nil, ""
}
