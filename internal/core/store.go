package core

import (
	"errors"
	"fmt"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/objstore"
	"cloud4home/internal/overlay"
	"cloud4home/internal/policy"
)

// StoreOptions controls one store operation.
type StoreOptions struct {
	// Blocking stores wait for the destination's acknowledgement,
	// incurring its cost (§III-B); non-blocking stores return after the
	// object reaches the control domain and place it in the background.
	Blocking bool
	// Policy overrides the node's store policy for this operation.
	Policy policy.StorePolicy
}

// StoreResult reports a completed (or, for non-blocking stores,
// initiated) store operation.
type StoreResult struct {
	// Location is where the object was placed (node addr or S3 URL);
	// empty for non-blocking stores, whose placement completes later.
	Location string
	// Target classifies the placement.
	Target policy.StoreTarget
	// InterDomain is the guest→dom0 transfer cost.
	InterDomain time.Duration
	// Placement is the time spent deciding and moving the object to its
	// destination (zero for non-blocking stores).
	Placement time.Duration
	// Total is the caller-observed latency.
	Total time.Duration
}

// StoreObject stores an object created with CreateObject. data may be nil
// for a synthetic object of the given size (the workload generators use
// this); with a materialised payload, size is ignored and the bytes
// travel with the object to wherever it is placed.
func (s *Session) StoreObject(name string, data []byte, size int64, opts StoreOptions) (StoreResult, error) {
	obj, ok := s.created[name]
	if !ok {
		return StoreResult{}, fmt.Errorf("core: store %q: CreateObject must be called first", name)
	}
	if data != nil {
		obj.Size = int64(len(data))
	} else {
		obj.Size = size
	}
	if obj.Size < 0 {
		return StoreResult{}, fmt.Errorf("core: store %q: negative size", name)
	}
	start := s.node.clock.Now()
	if err := s.sendCommand(command.TypeStore, 0, name); err != nil {
		return StoreResult{}, err
	}
	// The object crosses from the guest VM into the control domain.
	interDomain, err := s.interDomain(obj.Size)
	if err != nil {
		return StoreResult{}, err
	}
	delete(s.created, name)
	s.node.ops.Stores++
	s.node.ops.BytesStored += obj.Size

	if !opts.Blocking {
		// Non-blocking: placement continues in the control domain while
		// the application proceeds. Errors degrade to a drop in the
		// prototype — counted, so availability accounting sees the loss;
		// tests use Flush + metadata lookups to verify.
		s.node.spawn(func() {
			if _, _, err := s.node.place(obj, data, opts.Policy); err != nil {
				s.node.ops.AsyncPlaceDrops++
			}
		})
		return StoreResult{
			InterDomain: interDomain,
			Total:       s.node.clock.Now().Sub(start),
		}, nil
	}

	pStart := s.node.clock.Now()
	location, target, err := s.node.place(obj, data, opts.Policy)
	if err != nil {
		return StoreResult{}, err
	}
	placement := s.node.clock.Now().Sub(pStart)
	return StoreResult{
		Location:    location,
		Target:      target,
		InterDomain: interDomain,
		Placement:   placement,
		Total:       s.node.clock.Now().Sub(start),
	}, nil
}

// StoreObjectData is a convenience that creates and blocking-stores a
// materialised object in one call.
func (s *Session) StoreObjectData(name, typ string, data []byte, opts StoreOptions) (StoreResult, error) {
	if err := s.CreateObject(name, typ, nil); err != nil {
		return StoreResult{}, err
	}
	return s.StoreObject(name, data, 0, opts)
}

// place runs the control domain's placement pipeline: policy decision,
// data movement, metadata update, and the destination acknowledgement.
func (n *Node) place(obj objstore.Object, data []byte, override policy.StorePolicy) (string, policy.StoreTarget, error) {
	pol := override
	if pol == nil {
		pol = n.cfg.StorePolicy
	}
	decision, err := pol.Decide(n.storeContext(obj))
	if err != nil {
		return "", 0, err
	}

	// The decided target can race with concurrent stores filling a bin;
	// fall through the paper's chain (local → voluntary peers → cloud).
	tried := map[policy.StoreTarget]bool{}
	for {
		loc, err := n.placeAt(obj, data, decision)
		if err == nil {
			// The name may shadow an earlier object (overwrites relocate);
			// any dom0-cached payload for it is stale now.
			n.home.invalidateDataCaches(obj.Name)
			return loc, decision.Target, nil
		}
		if !errors.Is(err, objstore.ErrBinFull) && !errors.Is(err, objstore.ErrExists) {
			return "", 0, err
		}
		tried[decision.Target] = true
		switch {
		case !tried[policy.TargetPeer]:
			ctx := n.storeContext(obj)
			if addr, ok := bestPeer(ctx.Peers, obj.Size); ok {
				decision = policy.StoreDecision{Target: policy.TargetPeer, PeerAddr: addr}
				continue
			}
			tried[policy.TargetPeer] = true
			fallthrough
		case !tried[policy.TargetCloud] && n.home.Cloud() != nil:
			decision = policy.StoreDecision{Target: policy.TargetCloud}
		default:
			return "", 0, fmt.Errorf("core: store %q: %w", obj.Name, policy.ErrNoPlacement)
		}
	}
}

func bestPeer(peers []policy.PeerSpace, size int64) (string, bool) {
	best, bestFree := "", int64(-1)
	for _, p := range peers {
		if p.VoluntaryFree >= size && p.VoluntaryFree > bestFree {
			best, bestFree = p.Addr, p.VoluntaryFree
		}
	}
	return best, best != ""
}

// placeAt moves the object (and payload, when materialised) to the
// decided destination and publishes its metadata.
func (n *Node) placeAt(obj objstore.Object, data []byte, d policy.StoreDecision) (string, error) {
	switch d.Target {
	case policy.TargetLocal:
		if err := n.store.Put(objstore.Mandatory, obj, data); err != nil {
			return "", err
		}
		meta := metaFromObject(obj, n.addr, objstore.Mandatory)
		n.addRedundancy(&meta, obj, data, n.addr)
		if err := n.putMeta(meta); err != nil {
			return "", err
		}
		return n.addr, nil

	case policy.TargetPeer:
		peer, ok := n.home.Node(d.PeerAddr)
		if !ok {
			return "", fmt.Errorf("core: store %q: peer %q gone", obj.Name, d.PeerAddr)
		}
		// Move the object over the LAN, then a small ack message back.
		n.home.net.Transfer(n.lanPathTo(peer), obj.Size)
		if err := peer.store.Put(objstore.Voluntary, obj, data); err != nil {
			return "", err
		}
		n.home.net.Message(n.lanPathTo(peer))
		meta := metaFromObject(obj, peer.addr, objstore.Voluntary)
		n.addRedundancy(&meta, obj, data, peer.addr)
		if err := n.putMeta(meta); err != nil {
			return "", err
		}
		return peer.addr, nil

	case policy.TargetCloud:
		backend, record, err := n.cloudBackend(obj)
		if err != nil {
			return "", err
		}
		url, _, err := backend.StoreObject(n.nic, obj, data)
		if err != nil {
			return "", err
		}
		meta := metaFromObject(obj, url, 0)
		meta.Backend = record
		if err := n.putMeta(meta); err != nil {
			return "", err
		}
		return url, nil

	default:
		return "", fmt.Errorf("core: store %q: unknown target %v", obj.Name, d.Target)
	}
}

// storeContext assembles the policy inputs: the local bin watcher plus
// the peers' monitored voluntary space from the key-value store. The
// membership is read into a stack buffer and Peers is sized once; Peers
// is the context's one allocation, since the policy keeps it.
//
// c4h:hotpath
func (n *Node) storeContext(obj objstore.Object) policy.StoreContext {
	ctx := policy.StoreContext{
		Object:         obj,
		CloudAvailable: n.home.Cloud() != nil,
	}
	if u, err := n.store.Usage(objstore.Mandatory); err == nil {
		ctx.LocalMandatoryFree = u.Free()
	}
	var buf [16]overlay.Member
	members := n.router.AppendMembers(buf[:0])
	peers := make([]policy.PeerSpace, 0, max(len(members)-1, 0))
	for _, m := range members {
		if m.ID == n.id {
			continue
		}
		res, err := n.resources(m.Addr)
		if err != nil {
			continue // peer has not published yet; skip it
		}
		peers = append(peers, policy.PeerSpace{
			Addr:          m.Addr,
			VoluntaryFree: res.VoluntaryFree,
		})
	}
	ctx.Peers = peers
	return ctx
}
