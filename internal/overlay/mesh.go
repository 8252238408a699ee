package overlay

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cloud4home/internal/ids"
	"cloud4home/internal/rbtree"
)

// Wire charges the delivery cost of one small control message between two
// overlay nodes. The simulation backs it with netsim; unit tests may use
// a free wire; a real deployment sends actual packets.
type Wire interface {
	Send(from, to ids.ID)
}

// FreeWire is a Wire with no cost, for unit tests.
type FreeWire struct{}

var _ Wire = FreeWire{}

// Send implements Wire.
func (FreeWire) Send(_, _ ids.ID) {}

// Errors returned by Mesh operations.
var (
	ErrUnknownNode = errors.New("overlay: unknown node")
	ErrDuplicateID = errors.New("overlay: duplicate node id")
	ErrEmptyMesh   = errors.New("overlay: mesh has no nodes")
)

// DepartureHandler is invoked once when a peer leaves or fails, after
// membership has been updated. The key-value store uses it to
// redistribute the departed node's keys ("a departing node's keys are
// always redistributed among the available set of nodes", §III-A).
type DepartureHandler func(departed Member)

// JoinHandler is invoked once when a peer joins, after membership has
// been updated; the key-value store uses it to hand over keys the
// newcomer now owns.
type JoinHandler func(joined Member)

// Mesh is an in-process home-cloud overlay: a set of routers connected by
// a Wire. It implements the dynamic overlay reconfiguration of §III-A —
// nodes join and leave at runtime, neighbours are notified, and routing
// proceeds hop-by-hop with per-hop cost.
//
// The membership is interned once in a shared Arena instead of being
// replicated into every router, so a join or leave costs O(log N); higher
// layers register one handler per event kind, not one per node, so churn
// costs O(1) handler dispatch.
type Mesh struct {
	wire  Wire
	arena *Arena

	mu          sync.RWMutex
	nodes       map[ids.ID]*Router
	onJoin      []JoinHandler
	onDeparture []DepartureHandler

	// Super-peer tier: regions > 0 partitions the ID ring into that many
	// contiguous regional domains; the lowest-addressed live member of
	// each domain acts as its aggregation super-peer and inter-domain
	// traffic travels home → super-peer → super-peer → owner.
	regions     int
	regionTrees []*rbtree.Tree[Member] // guarded by mu
}

// NewMesh returns an empty mesh over the given wire.
func NewMesh(wire Wire) *Mesh {
	return &Mesh{wire: wire, arena: NewArena(), nodes: make(map[ids.ID]*Router)}
}

// ArenaBytes estimates the resident bytes of the shared membership arena.
func (m *Mesh) ArenaBytes() int64 { return m.arena.Bytes() }

// Join adds a node with the given address to the overlay and returns its
// router. One interned record makes the newcomer visible to every router
// (the membership view is complete); the newcomer's ring neighbours are
// messaged, as in the paper's protocol.
func (m *Mesh) Join(addr string) (*Router, error) {
	id := ids.HashString(addr)
	m.mu.Lock()
	if _, dup := m.nodes[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (addr %q)", ErrDuplicateID, id, addr)
	}
	self := Member{ID: id, Addr: addr}
	r := &Router{self: self, arena: m.arena}
	m.nodes[id] = r
	handlers := m.onJoin
	m.regionInsertLocked(self)
	m.mu.Unlock()

	m.arena.Insert(self)
	m.messageNeighbors(r)
	for _, h := range handlers {
		h(self)
	}
	return r, nil
}

// messageNeighbors charges r's hello or farewell: "whenever a node enters
// ... it sends a message to its right and left nodes in the logical tree
// structure"; the remaining members learn via the membership update.
func (m *Mesh) messageNeighbors(r *Router) {
	if left, right, ok := r.Neighbors(); ok {
		m.wire.Send(r.self.ID, left.ID)
		if right.ID != left.ID {
			m.wire.Send(r.self.ID, right.ID)
		}
	}
}

// remove implements Leave (farewell = true) and Fail (farewell = false).
func (m *Mesh) remove(id ids.ID, farewell bool) error {
	m.mu.Lock()
	r, ok := m.nodes[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	delete(m.nodes, id)
	handlers := m.onDeparture
	departed := r.Self()
	m.regionRemoveLocked(departed)
	m.mu.Unlock()

	if farewell {
		// Before the membership is updated, so the departing node still
		// sees the full ring.
		m.messageNeighbors(r)
	}
	m.arena.Remove(id)
	for _, h := range handlers {
		h(departed)
	}
	return nil
}

// Leave removes the node from the overlay gracefully: neighbours are
// messaged, membership updated everywhere, and departure handlers run so
// higher layers can redistribute the node's keys.
func (m *Mesh) Leave(id ids.ID) error { return m.remove(id, true) }

// Fail removes the node abruptly (crash): no farewell messages, but
// survivors still detect the departure and run their handlers, relying on
// replicated state rather than a handover from the failed node.
func (m *Mesh) Fail(id ids.ID) error { return m.remove(id, false) }

// OnJoin registers a handler run once per join, in registration order,
// regardless of mesh size.
func (m *Mesh) OnJoin(h JoinHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onJoin = append(m.onJoin, h)
}

// OnDeparture registers a handler run once per leave or fail.
func (m *Mesh) OnDeparture(h DepartureHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onDeparture = append(m.onDeparture, h)
}

// Router returns the router of a live node.
func (m *Mesh) Router(id ids.ID) (*Router, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return r, nil
}

// Nodes returns the IDs of all live nodes in ring order, so callers
// iterate deterministically.
func (m *Mesh) Nodes() []ids.ID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]ids.ID, 0, len(m.nodes))
	for id := range m.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of live nodes.
func (m *Mesh) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.nodes)
}

// ---- Super-peer tier ----

// EnableSuperPeers partitions the identifier ring into n contiguous
// regional domains (MEC-style aggregation domains between the home tier
// and the cloud). Each domain's super-peer is its lowest-addressed live
// member — the same deterministic promotion rule the repair layer uses —
// and Route then travels home → regional super-peer → key-region
// super-peer → owner instead of prefix-hopping, so hop counts stop
// growing with population. n <= 1 disables the tier. Enabling is allowed
// at any time; current members are re-indexed.
func (m *Mesh) EnableSuperPeers(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 1 {
		m.regions = 0
		m.regionTrees = nil
		return
	}
	m.regions = n
	m.regionTrees = make([]*rbtree.Tree[Member], n)
	for i := range m.regionTrees {
		m.regionTrees[i] = rbtree.New[Member]()
	}
	for _, r := range m.nodes {
		self := r.Self()
		m.regionTrees[m.regionOf(self.ID)].Insert(self.ID, self)
	}
}

// SuperPeerRegions returns the configured region count (0 = tier off).
func (m *Mesh) SuperPeerRegions() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.regions
}

// regionOf maps an identifier to its regional domain. Caller holds mu
// (any mode) and m.regions > 0.
func (m *Mesh) regionOf(id ids.ID) int {
	span := (uint64(1)<<ids.Bits + uint64(m.regions) - 1) / uint64(m.regions)
	return int(uint64(id) / span)
}

func (m *Mesh) regionInsertLocked(mem Member) {
	if m.regions > 0 {
		m.regionTrees[m.regionOf(mem.ID)].Insert(mem.ID, mem)
	}
}

func (m *Mesh) regionRemoveLocked(mem Member) {
	if m.regions > 0 {
		m.regionTrees[m.regionOf(mem.ID)].Delete(mem.ID)
	}
}

// superPeerLocked returns region's super-peer: its lowest-addressed live
// member. Caller holds mu and m.regions > 0.
func (m *Mesh) superPeerLocked(region int) (Member, bool) {
	_, mem, ok := m.regionTrees[region].Min()
	return mem, ok
}

// SuperPeer returns the super-peer of id's regional domain, if the tier
// is enabled and the domain has members.
func (m *Mesh) SuperPeer(id ids.ID) (Member, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.regions <= 0 {
		return Member{}, false
	}
	return m.superPeerLocked(m.regionOf(id))
}

// NextHopFrom performs one routing step from cur toward key's owner,
// honouring the super-peer tier when enabled: super reports whether the
// chosen next hop is an aggregation (super-peer) hop rather than a
// home-tier hop. With the tier disabled it is exactly cur.NextHop.
//
// c4h:hotpath
func (m *Mesh) NextHopFrom(cur *Router, key ids.ID) (next Member, forward, super bool) {
	owner := cur.Owner(key)
	self := cur.Self()
	if owner.ID == self.ID {
		return self, false, false
	}
	m.mu.RLock()
	regions := m.regions
	var spKey, spCur Member
	var okKey, okCur bool
	if regions > 0 {
		spKey, okKey = m.superPeerLocked(m.regionOf(key))
		spCur, okCur = m.superPeerLocked(m.regionOf(self.ID))
	}
	m.mu.RUnlock()
	if regions <= 0 {
		n, fwd := cur.NextHop(key)
		return n, fwd, false
	}
	switch {
	case !okKey || spKey.ID == self.ID:
		// We aggregate the key's region (or it is empty): deliver to the
		// owner directly from the shared membership view.
		return owner, true, false
	case okCur && spCur.ID == self.ID:
		// Spine hop between regional aggregators.
		return spKey, true, true
	default:
		// Uplink from a home to its regional aggregator; if our own
		// region somehow lost all members (cannot happen while we are
		// live), fall through to the key-region aggregator.
		if okCur {
			return spCur, true, true
		}
		return spKey, true, true
	}
}

// RouteResult describes one completed routing operation.
type RouteResult struct {
	// Owner is the node responsible for the key.
	Owner Member
	// Hops is the number of overlay hops taken (0 when the origin owns
	// the key).
	Hops int
	// SuperHops counts the hops whose destination was a regional
	// super-peer (always 0 with the tier disabled).
	SuperHops int
	// Path lists every node visited, origin first, owner last.
	Path []Member
}

// Route walks the overlay hop-by-hop from the origin node toward the
// owner of key, charging one wire message per hop, and returns the
// result. This is the primitive beneath every DHT put/get.
func (m *Mesh) Route(from ids.ID, key ids.ID) (RouteResult, error) {
	m.mu.RLock()
	cur, ok := m.nodes[from]
	n := len(m.nodes)
	m.mu.RUnlock()
	if !ok {
		return RouteResult{}, fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	if n == 0 {
		return RouteResult{}, ErrEmptyMesh
	}
	res := RouteResult{Path: []Member{cur.Self()}}
	for attempt := 0; attempt <= 2*n+4; attempt++ {
		next, forward, super := m.NextHopFrom(cur, key)
		if !forward {
			res.Owner = cur.Self()
			return res, nil
		}
		m.wire.Send(cur.Self().ID, next.ID)
		res.Hops++
		if super {
			res.SuperHops++
		}
		res.Path = append(res.Path, next)
		m.mu.RLock()
		nr, live := m.nodes[next.ID]
		m.mu.RUnlock()
		if !live {
			// The next hop left the mesh but is still interned (its
			// departure is mid-flight): drop the record and retry from
			// the same position.
			m.arena.Remove(next.ID)
			res.Hops--
			if super {
				res.SuperHops--
			}
			res.Path = res.Path[:len(res.Path)-1]
			continue
		}
		cur = nr
	}
	return RouteResult{}, fmt.Errorf("overlay: routing for key %s did not converge", key)
}
