package core

import (
	"bytes"
	"fmt"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/netsim"
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
	// Retries is the modeled cost of the attempts that failed before the
	// one that delivered: a transfer cut short by its holder's death, a
	// pull of pieces tried again without a dead holder, and the cloud's
	// existence probe. Zero unless Config.Fallback is on and a holder
	// was lost.
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
	meta, data, source, breakdown, err := s.node.fetchToDom0(name, s.principal)
	if err != nil {
		return FetchResult{}, err
	}
	// Once the object is in dom0, it crosses the shared-memory channel
	// into the guest.
	if breakdown.InterDomain, err = s.interDomain(meta.Size); err != nil {
		return FetchResult{}, err
	}
	breakdown.Total = s.node.clock.Now().Sub(start)
	s.node.ops.Fetches++
	s.node.ops.BytesFetched += meta.Size
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
// resolution, before any payload moves. Only a cloud-resident object and
// a neighbour home's take an arm of their own; the rest is one pull.
//
// Ownership: the payload is a read-only borrow (objstore.Store.GetRef) —
// core may read it and pass it on, never write it, and copies it only
// where it leaves for the application (FetchObject, finishProcess).
func (n *Node) fetchToDom0(name, principal string) (ObjectMeta, []byte, string, FetchBreakdown, error) {
	var bd FetchBreakdown
	meta, lookup, err := n.getMeta(name)
	bd.DHTLookup = lookup
	home := n.home
	if err != nil {
		// Not in this home: try federated neighbour homes (§VII v).
		var ok bool
		if home, meta, ok = n.home.federatedLookup(name, n); !ok {
			return ObjectMeta{}, nil, "", bd, err
		}
	}
	if err := meta.checkAccess(principal); err != nil {
		return ObjectMeta{}, nil, "", bd, err
	}

	switch {
	case meta.InCloud():
		cloud, err := home.backendFor(meta.Backend)
		if err != nil {
			return meta, nil, "", bd, err
		}
		_, data, d, err := cloud.FetchObject(n.nic, name)
		bd.InterNode = d
		return meta, data, meta.Location, bd, err

	case home != n.home:
		holder, _ := n.holderFor(home, meta, nil)
		if holder == nil {
			return meta, nil, "", bd, fmt.Errorf("%w: %q (federated holder gone)", ErrObjectNotFound, name)
		}
		_, data, err := holder.store.GetRef(name)
		if err != nil {
			return meta, nil, "", bd, err
		}
		// Both fabrics and both NICs, with a neighbourhood RTT between the
		// two LANs.
		bd.InterNode = n.home.net.Transfer(&netsim.Path{
			Resources: []*netsim.Resource{holder.nic, home.fabric, n.home.fabric, n.nic},
			RTT:       12 * time.Millisecond,
			Jitter:    netsim.LANJitter,
		}, meta.Size)
		return meta, data, holder.addr, bd, nil
	}
	data, src, err := n.pull(n, meta, n.fetchLadder(), nil, &bd)
	return meta, data, src, bd, err
}
