package overlay

import (
	"sync"

	"cloud4home/internal/ids"
	"cloud4home/internal/rbtree"
)

// Arena is the shared, interned membership store behind a mesh. Were
// every router to keep a private red-black copy of the full membership,
// aggregate memory would be O(N²) — the hard ceiling on simulated city
// size. The mesh keeps ONE tree in the arena; routers hold only their own
// identity and a pointer to it.
//
// Ownership rules:
//
//   - The arena owns the membership tree. Routers never mutate it, and
//     never retain node pointers across calls — they look members up
//     under the arena lock each time.
//   - Every derived routing quantity (owner, prefix slot, replica set,
//     ring neighbours) is recomputed from the tree on demand. This is
//     safe because ids.Closer is a strict total order: each of those
//     quantities is the unique minimum of a Closer comparison over a
//     key range, so lazy recomputation returns bit-identical answers to
//     an eagerly maintained per-router copy (see closestInRange).
type Arena struct {
	mu sync.RWMutex
	// members is the interned membership store. References into it (the
	// tree or its nodes) are borrows: read under mu, pass down a call
	// chain, never retain across a mutation point — c4h-vet's arenaowner
	// rule enforces this annotation mechanically.
	members   *rbtree.Tree[Member] // c4h:arena
	addrBytes int64
}

// NewArena returns an empty shared membership arena.
func NewArena() *Arena {
	return &Arena{members: rbtree.New[Member]()}
}

// Insert interns a member. Inserting an existing ID refreshes its record.
func (a *Arena) Insert(m Member) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.members.Get(m.ID); ok {
		a.addrBytes -= int64(len(old.Addr))
	}
	a.members.Insert(m.ID, m)
	a.addrBytes += int64(len(m.Addr))
}

// Remove forgets a member.
func (a *Arena) Remove(id ids.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.members.Get(id); ok {
		a.addrBytes -= int64(len(old.Addr))
	}
	a.members.Delete(id)
}

// Len returns the current membership size.
func (a *Arena) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.members.Len()
}

// arenaNodeBytes estimates the resident size of one interned membership
// record: a red-black node (key, value, three child/parent pointers,
// colour) holding a Member (ID + string header), excluding the address
// bytes themselves which are tracked separately.
const arenaNodeBytes = 72

// Bytes estimates the arena's resident footprint. It is a gauge for the
// OpStats.ArenaBytes counter and the city-scale bytes/node metric, not an
// exact accounting.
func (a *Arena) Bytes() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return int64(a.members.Len())*arenaNodeBytes + a.addrBytes
}

// ---- Shared tree geometry ----
//
// The helpers below answer routing questions about a membership tree in
// O(log N) tree probes instead of a full scan, and every one of them
// returns the exact member a full Ascend fold minimising ids.Closer would: Closer is
// a strict total order (ring distance, ties to the numerically smaller
// ID), so each minimum is unique and independent of scan order.

// closestToKey returns the member minimising ids.Closer distance to key.
// On the ring, the clockwise distance from key is minimised by the
// ceiling member (wrapping to Min) and the counter-clockwise distance by
// the floor member (wrapping to Max); any other member is strictly
// farther in both directions, so the global minimum is one of those two.
//
// c4h:hotpath
func closestToKey(t *rbtree.Tree[Member], key ids.ID) (Member, bool) {
	_, cw, ok := t.Ceiling(key)
	if !ok {
		_, cw, ok = t.Min()
	}
	if !ok {
		return Member{}, false
	}
	_, ccw, ok := t.Floor(key)
	if !ok {
		_, ccw, _ = t.Max()
	}
	if ccw.ID == cw.ID || ids.Closer(key, cw.ID, ccw.ID) {
		return cw, true
	}
	return ccw, true
}

// classRange returns the numeric ID interval covered by prefix-table
// slot (l, d) of a router with identity self: IDs sharing self's first l
// hex digits, with digit l equal to d. The interval never contains self
// (its digit l differs by construction).
func classRange(self ids.ID, l, d int) (lo, hi ids.ID) {
	shift := uint(4 * (ids.Digits - 1 - l))
	base := uint64(self) &^ ((uint64(1) << (shift + 4)) - 1)
	loV := base | uint64(d)<<shift
	return ids.ID(loV), ids.ID(loV | (uint64(1)<<shift - 1))
}

// closestInRange returns the member in [lo, hi] minimising ids.Closer
// distance to self, where self lies outside the interval. Clockwise
// distance from self grows monotonically across the interval and
// counter-clockwise distance shrinks, so ring distance is unimodal (∩)
// over it and its minimum sits at one of the interval's two occupied
// endpoints; interior members are strictly farther in both directions.
//
// c4h:hotpath
func closestInRange(t *rbtree.Tree[Member], lo, hi, self ids.ID) (Member, bool) {
	loID, first, ok := t.Ceiling(lo)
	if !ok || loID > hi {
		return Member{}, false
	}
	hiID, last, _ := t.Floor(hi)
	if hiID == loID || ids.Closer(self, first.ID, last.ID) {
		return first, true
	}
	return last, true
}

// appendReplicaSet appends the n members closest to key, owner first, to
// dst. It is the full sort by ids.Closer made incremental: unconsumed
// members always form a contiguous ring arc whose Closer-minimum is at
// one of the arc's two ends (same unimodal argument as closestInRange),
// so an outward two-cursor merge from key emits members in exactly the
// strict total order the full sort would.
func appendReplicaSet(dst []Member, t *rbtree.Tree[Member], key ids.ID, n int) []Member {
	if n > t.Len() {
		n = t.Len()
	}
	if n <= 0 {
		return dst
	}
	cwID, cw, ok := t.Ceiling(key)
	if !ok {
		cwID, cw, _ = t.Min()
	}
	ccwID, ccw, _ := t.Predecessor(cwID)
	for i := 0; i < n; i++ {
		if cwID == ccwID {
			// One unconsumed member left (the cursors close the arc).
			dst = append(dst, cw)
			break
		}
		if ids.Closer(key, cw.ID, ccw.ID) {
			dst = append(dst, cw)
			cwID, cw, _ = t.Successor(cwID)
		} else {
			dst = append(dst, ccw)
			ccwID, ccw, _ = t.Predecessor(ccwID)
		}
	}
	return dst
}

// appendMembers appends every member to dst in ring order.
func appendMembers(dst []Member, t *rbtree.Tree[Member]) []Member {
	t.Ascend(func(_ ids.ID, m Member) bool {
		dst = append(dst, m)
		return true
	})
	return dst
}
