package core

import (
	"bytes"
	"fmt"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/netsim"
	"cloud4home/internal/vclock"
)

// FetchBreakdown is the per-phase cost profile of a fetch — the columns
// of Table I.
type FetchBreakdown struct {
	// DHTLookup is the metadata layer's cost (constant for a fixed-size
	// home cloud, independent of object size).
	DHTLookup time.Duration
	// InterNode is the cost of moving the object from its holder to the
	// requesting node (zero when held locally).
	InterNode time.Duration
	// InterDomain is the dom0→guest shared-memory transfer.
	InterDomain time.Duration
	// Retries accumulates the modeled cost of failed fetch attempts the
	// fault-tolerance ladder made before the one that succeeded; zero
	// unless FaultConfig.Fallback is enabled and a holder was lost.
	Retries time.Duration
	// Total is the caller-observed latency.
	Total time.Duration
}

// FetchResult reports a completed fetch.
type FetchResult struct {
	Meta ObjectMeta
	// Data is the payload; nil for sparse (cost-model-only) objects.
	Data []byte
	// Source is where the bytes came from.
	Source string
	// Breakdown is the Table I cost profile.
	Breakdown FetchBreakdown
}

// FetchObject retrieves an object by name: the metadata layer locates it,
// "whereupon the object is requested from the owner location specified in
// Chimera. Once the object is fetched, it is passed to the application's
// guest VM" (§III-B).
func (s *Session) FetchObject(name string) (FetchResult, error) {
	start := s.node.clock.Now()
	if err := s.sendCommand(command.TypeFetch, 0, name); err != nil {
		return FetchResult{}, err
	}
	// With the pipelined data plane, wire chunks stream into the guest
	// channel as they arrive instead of the two phases running serially.
	var sink *domainSink
	if s.node.cfg.DataPlane.Pipelined {
		sink = newDomainSink(s.chn, s.node.clock)
	}
	meta, data, source, breakdown, err := s.node.fetchToDom0(name, s.principal, sink)
	if err != nil {
		if sink != nil && sink.used {
			// A failed pipelined fetch may have streamed chunks already;
			// settle the pipeline so the half-delivered sink cannot corrupt
			// the next fetch's accounting on this channel.
			sink.pl.Finish(sink.tail())
		}
		return FetchResult{}, err
	}
	if sink != nil && sink.used {
		// The wire phase already drained most pages concurrently; settle
		// the tail extending past it. InterDomain reports the full modeled
		// drain cost, so Total comes out below the serial phase sum.
		sink.pl.Finish(sink.tail())
		breakdown.InterDomain = sink.cost
	} else {
		// dom0 → guest over the shared-memory channel, serially.
		interDomain, err := s.interDomain(meta.Size)
		if err != nil {
			return FetchResult{}, err
		}
		breakdown.InterDomain = interDomain
	}
	breakdown.Total = s.node.clock.Now().Sub(start)
	s.node.ops.fetches.Add(1)
	s.node.ops.bytesFetched.Add(meta.Size)
	// Ownership: data is a borrow of a store's (or the cache's) own bytes;
	// the copy made here is the application's to write.
	return FetchResult{
		Meta:      meta,
		Data:      bytes.Clone(data),
		Source:    source,
		Breakdown: breakdown,
	}, nil
}

// fetchToDom0 brings the object into this node's control domain,
// returning the metadata, payload, source, and the partial cost
// breakdown (lookup + inter-node phases). Access is enforced at metadata
// resolution, before any payload moves. A non-nil sink streams LAN wire
// chunks into the guest channel as they arrive (the pipelined data
// plane); local, cached, cloud, and federated paths leave it untouched.
//
// Ownership: the payload is a read-only borrow (objstore.Store.GetRef) —
// core may read it and pass it on, never write it, and copies it only
// where it leaves for the application (FetchObject, finishProcess).
func (n *Node) fetchToDom0(name, principal string, sink *domainSink) (ObjectMeta, []byte, string, FetchBreakdown, error) {
	var bd FetchBreakdown
	meta, lookup, err := n.getMeta(name)
	bd.DHTLookup = lookup
	if err != nil {
		// Not in this home: try federated neighbour homes (§VII v).
		peerHome, peerMeta, ok := n.home.federatedLookup(name, n)
		if !ok {
			return ObjectMeta{}, nil, "", bd, err
		}
		if !peerMeta.allowed(principal) {
			return ObjectMeta{}, nil, "", bd, fmt.Errorf("%w: %q may not access %q (owner %q)",
				ErrAccessDenied, principal, peerMeta.Name, peerMeta.Owner)
		}
		data, src, interNode, ferr := n.fetchFederated(peerHome, peerMeta)
		bd.InterNode = interNode
		return peerMeta, data, src, bd, ferr
	}
	if !meta.allowed(principal) {
		return ObjectMeta{}, nil, "", bd, fmt.Errorf("%w: %q may not access %q (owner %q)",
			ErrAccessDenied, principal, meta.Name, meta.Owner)
	}

	switch {
	case meta.InCloud():
		cloud, err := n.home.backendFor(meta.Backend)
		if err != nil {
			return meta, nil, "", bd, err
		}
		_, data, d, err := cloud.FetchObject(n.nic, name)
		bd.InterNode = d
		if err != nil {
			return meta, nil, "", bd, err
		}
		return meta, data, meta.Location, bd, nil

	case meta.Location == n.addr:
		_, data, err := n.store.GetRef(name)
		if err != nil {
			return meta, nil, "", bd, fmt.Errorf("core: fetch %q: metadata points here but: %w", name, err)
		}
		return meta, data, n.addr, bd, nil

	default:
		// A best-effort replica on this very node short-circuits the wire.
		if len(meta.Replicas) > 0 && n.store.Has(name) {
			_, data, err := n.store.GetRef(name)
			if err == nil {
				return meta, data, n.addr, bd, nil
			}
		}
		// The dom0 cache answers repeat fetches at local latency.
		if data, hit := n.cacheGet(meta); hit {
			return meta, data, "cache:" + n.addr, bd, nil
		}
		if v, ok := n.clock.(*vclock.Virtual); ok && n.home.coalesceFetch {
			return n.fetchCoalesced(v, meta, sink, bd)
		}
		return n.fetchRemote(meta, sink, bd)
	}
}

// fetchRemote is fetchToDom0's wire branch: the object lives on another
// home node, so request it and move the bytes over the LAN.
func (n *Node) fetchRemote(meta ObjectMeta, sink *domainSink, bd FetchBreakdown) (ObjectMeta, []byte, string, FetchBreakdown, error) {
	name := meta.Name
	if n.cfg.DataPlane.StripedFetch {
		if data, src, interNode, ok := n.fetchStriped(meta, sink); ok {
			bd.InterNode = interNode
			n.cacheFill(meta, data)
			return meta, data, src, bd, nil
		}
	}
	peer, ok := n.home.Node(meta.Location)
	if !ok {
		if n.cfg.Faults.Fallback {
			return n.fetchViaFallback(meta, sink, bd)
		}
		return meta, nil, "", bd, fmt.Errorf("%w: %q (holder %q gone)", ErrObjectNotFound, name, meta.Location)
	}
	// Request message to the owner, then the inter-node transfer
	// (kernel-to-kernel zero copy in the prototype; here the netsim
	// path charges the same wire time).
	n.home.net.Message(n.lanPathTo(peer))
	_, data, err := peer.store.GetRef(name)
	if err != nil {
		if n.cfg.Faults.Fallback {
			return n.fetchViaFallback(meta, sink, bd)
		}
		return meta, nil, "", bd, fmt.Errorf("core: fetch %q from %s: %w", name, peer.addr, err)
	}
	if sink != nil && meta.Size > 0 {
		req := netsim.TransferReq{
			Path:    peer.lanPathTo(n),
			Size:    meta.Size,
			Chunk:   sink.chunk,
			OnChunk: sink.onChunk,
		}
		if n.cfg.Faults.Fallback {
			// Let a holder crash abort the transfer instead of running the
			// modeled wire to completion against a dead endpoint.
			req.Cancel = n.holderGone(peer)
		}
		st, wall, terr := n.home.net.TransferSet([]netsim.TransferReq{req})
		aborted := terr == nil && len(st) > 0 && st[0].Aborted
		if terr != nil || len(st) == 0 || aborted {
			if n.cfg.Faults.Fallback {
				// The aborted attempt's partial wire time is retry cost,
				// not useful inter-node time.
				bd.Retries += wall
				return n.fetchViaFallback(meta, sink, bd)
			}
			return meta, nil, "", bd, fmt.Errorf("core: fetch %q from %s: %v", name, peer.addr, terr)
		}
		bd.InterNode = wall
	} else {
		bd.InterNode = n.home.net.Transfer(peer.lanPathTo(n), meta.Size)
	}
	n.cacheFill(meta, data)
	return meta, data, peer.addr, bd, nil
}

// fetchFlight is one in-flight remote fetch other requests may join.
type fetchFlight struct {
	ev   *vclock.Event
	meta ObjectMeta
	data []byte
	src  string
	err  error
}

// fetchCoalesced merges concurrent remote fetches of one object
// (HomeOptions.CoalesceFetch): the first requester becomes the leader and
// runs the real wire transfer; followers park on the flight's event until
// the leader's bytes arrive — so each follower's inter-node time is
// exactly the remaining duration of the shared transfer — then share the
// leader's borrowed payload. Followers leave their pipeline sink untouched
// (their session falls back to the serial dom0→guest drain); the flight's
// fields are written by the leader before Fire and read-only afterwards.
func (n *Node) fetchCoalesced(v *vclock.Virtual, meta ObjectMeta, sink *domainSink, bd FetchBreakdown) (ObjectMeta, []byte, string, FetchBreakdown, error) {
	name := meta.Name
	n.flightMu.Lock()
	if f, ok := n.flights[name]; ok {
		n.flightMu.Unlock()
		start := n.clock.Now()
		f.ev.Wait()
		n.ops.coalescedFetches.Add(1)
		if f.err != nil {
			return meta, nil, "", bd, f.err
		}
		bd.InterNode = n.clock.Now().Sub(start)
		return f.meta, f.data, f.src, bd, nil
	}
	f := &fetchFlight{ev: v.NewEvent()}
	if n.flights == nil {
		n.flights = make(map[string]*fetchFlight)
	}
	n.flights[name] = f
	n.flightMu.Unlock()

	m, data, src, bd, err := n.fetchRemote(meta, sink, bd)
	f.meta, f.data, f.src, f.err = m, data, src, err
	// Unregister before firing: requests arriving after completion start a
	// fresh flight instead of reading a finished one.
	n.flightMu.Lock()
	delete(n.flights, name)
	n.flightMu.Unlock()
	f.ev.Fire()
	return m, data, src, bd, err
}

// fetchFederated pulls an object from a neighbour home over the
// inter-home link.
func (n *Node) fetchFederated(peerHome *Home, meta ObjectMeta) ([]byte, string, time.Duration, error) {
	if meta.InCloud() {
		cloud, err := peerHome.backendFor(meta.Backend)
		if err != nil {
			return nil, "", 0, err
		}
		_, data, d, err := cloud.FetchObject(n.nic, meta.Name)
		return data, meta.Location, d, err
	}
	holder, ok := peerHome.Node(meta.Location)
	if n.cfg.Faults.Fallback && (!ok || !holder.store.Has(meta.Name)) {
		// The neighbour home's primary is gone; substitute a surviving
		// replica holder over there before giving up.
		n.ops.fetchRetries.Add(1)
		holder, ok = nil, false
		if whole := peerHome.wholeCopies(meta); len(whole) > 0 {
			holder, ok = whole[0], true
		}
	}
	if !ok {
		return nil, "", 0, fmt.Errorf("%w: %q (federated holder gone)", ErrObjectNotFound, meta.Name)
	}
	_, data, err := holder.store.GetRef(meta.Name)
	if err != nil {
		return nil, "", 0, err
	}
	// Inter-home path: both fabrics plus both NICs, with a neighbourhood
	// RTT between the two LANs.
	path := &netsim.Path{
		Resources: []*netsim.Resource{holder.nic, peerHome.fabric, n.home.fabric, n.nic},
		RTT:       12 * time.Millisecond,
		Jitter:    netsim.LANJitter,
	}
	d := n.home.net.Transfer(path, meta.Size)
	return data, holder.addr, d, nil
}
