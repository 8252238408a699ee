// Package overlay implements the Chimera-style structured peer-to-peer
// overlay VStore++ builds its metadata layer on (§III-A). Like Chimera —
// "a lightweight C implementation of a structured overlay that provides
// functionality [similar] to prefix routing protocols like Tapestry and
// Pastry" — routing proceeds hex-digit by hex-digit toward the node whose
// 40-bit identifier is numerically closest to the key.
//
// In the paper each node keeps (i) a prefix routing table and (ii) the
// "logical tree view of other nodes in the overlay, implemented as a
// red-black tree" (Fig 2), and at home-cloud scale the tree holds the full
// membership. An in-process mesh need not store that view once per node:
// every router holds only its identity and a pointer to the mesh's shared
// Arena, and owner, prefix-slot and replica-set answers are recomputed
// from the one interned tree on demand (arena.go shows why that equals an
// eagerly maintained per-router table). Routing still steps hop-by-hop
// through the prefix slots so lookup costs behave like the real
// protocol's; a router costs O(1) resident bytes and a join or leave
// O(log N).
package overlay

import (
	"fmt"

	"cloud4home/internal/ids"
)

// Member is the membership record one node keeps about another.
type Member struct {
	// ID is the node's 40-bit overlay identifier (hash of its address).
	ID ids.ID
	// Addr is the node's reachable address ("10.0.0.7:9000").
	Addr string
}

// Router is the per-node routing state machine. It is pure: it neither
// sends messages nor sleeps; Mesh (or a real transport) drives it.
type Router struct {
	self  Member
	arena *Arena // shared membership; Mesh.Join interns self into it
}

// Self returns this node's membership record.
func (r *Router) Self() Member { return r.self }

// slot returns prefix-table entry (l, d): the member closest to self
// among those sharing self's first l digits with digit l equal to d,
// recomputed from the shared tree in two O(log N) probes.
//
// c4h:hotpath
func (r *Router) slot(l, d int) (Member, bool) {
	lo, hi := classRange(r.self.ID, l, d)
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	return closestInRange(r.arena.members, lo, hi, r.self.ID)
}

// Members returns a snapshot of the membership (including self) in ring
// order.
func (r *Router) Members() []Member {
	return r.AppendMembers(make([]Member, 0, r.Len()))
}

// AppendMembers appends the membership snapshot to dst and returns it,
// letting hot callers reuse one buffer across snapshots instead of
// allocating per call.
func (r *Router) AppendMembers(dst []Member) []Member {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	return appendMembers(dst, r.arena.members)
}

// Len returns the number of known members including self.
func (r *Router) Len() int { return r.arena.Len() }

// Knows reports whether the router has a record for id.
func (r *Router) Knows(id ids.ID) bool {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	_, ok := r.arena.members.Get(id)
	return ok
}

// Neighbors returns this node's left and right neighbours in the logical
// tree: the nodes notified on join and departure (§III-A). With fewer
// than two peers, both neighbours may be the same node or absent.
func (r *Router) Neighbors() (left, right Member, ok bool) {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	t := r.arena.members
	if t.Len() < 2 {
		return Member{}, Member{}, false
	}
	_, left, _ = t.Predecessor(r.self.ID)
	_, right, _ = t.Successor(r.self.ID)
	return left, right, true
}

// Owner returns the member whose ID is numerically closest to key under
// the ring metric — the node responsible for the key ("the object
// information is routed to a node with an ID closest to the hash value").
//
// c4h:hotpath
func (r *Router) Owner(key ids.ID) Member {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	if m, ok := closestToKey(r.arena.members, key); ok {
		return m
	}
	return r.self
}

// IsOwner reports whether this node is responsible for key.
//
// c4h:hotpath
func (r *Router) IsOwner(key ids.ID) bool {
	return r.Owner(key).ID == r.self.ID
}

// NextHop performs one prefix-routing step toward key. It returns
// (self, false) when this node is the key's owner, otherwise the next
// node to forward to and true.
//
// c4h:hotpath
func (r *Router) NextHop(key ids.ID) (Member, bool) {
	owner := r.Owner(key)
	if owner.ID == r.self.ID {
		return r.self, false
	}
	l := ids.CommonPrefixLen(key, r.self.ID)
	if l < ids.Digits {
		if m, ok := r.slot(l, key.Digit(l)); ok {
			return m, true
		}
	}
	// No prefix match: fall back to the member strictly closest to the
	// key — the owner, which is not us here.
	return owner, true
}

// ReplicaSet returns the n distinct members closest to key in ring-metric
// order (the owner first). Used by the key-value store's replication and
// by departure-time key redistribution.
func (r *Router) ReplicaSet(key ids.ID, n int) []Member {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	if n > r.arena.members.Len() {
		n = r.arena.members.Len()
	}
	return appendReplicaSet(make([]Member, 0, n), r.arena.members, key, n)
}

// String renders a short diagnostic form.
func (r *Router) String() string {
	return fmt.Sprintf("router(%s @ %s, %d members)", r.self.ID, r.self.Addr, r.Len())
}
