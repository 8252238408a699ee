// Package kv implements the distributed key-value store of §III-A: the
// single uniform interface VStore++ uses for object metadata, service
// registration, and resource monitoring records. It is a DHT built on the
// Chimera-style overlay: keys are routed to the node whose 40-bit ID is
// closest to the key's hash.
//
// The store supports the paper's three overwrite policies ("an overwrite
// policy value that determines if the metadata needs to be overwritten,
// if newer version of metadata is to be added by chaining, or if an error
// should be returned"), path caching ("key-value entries are cached onto
// intermediate hops on each request's path"; caches are updated when the
// entry is modified), and replication with a fixed factor, with key
// redistribution when nodes depart.
//
// Every version is stored once. Put builds a key's chain from a copy of
// the caller's bytes; the owner, its replicas and every path cache then
// hold that same slice. A chain is never written after it is built (a
// Chain-policy append is copy-on-write), and bytes are copied again only
// where Get and GetAll hand them out.
package kv

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cloud4home/internal/ids"
	"cloud4home/internal/overlay"
)

// WritePolicy selects the behaviour when a key already exists (§III-A).
type WritePolicy int

const (
	// Overwrite replaces the existing value.
	Overwrite WritePolicy = iota + 1
	// Chain appends the value as a new version, keeping history.
	Chain
	// ErrorIfExists fails the put when the key is already present.
	ErrorIfExists
)

// String renders the policy name.
func (p WritePolicy) String() string {
	switch p {
	case Overwrite:
		return "overwrite"
	case Chain:
		return "chain"
	case ErrorIfExists:
		return "error-if-exists"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// Errors returned by store operations.
var (
	ErrNotFound = errors.New("kv: key not found")
	ErrExists   = errors.New("kv: key already exists")
	ErrDetached = errors.New("kv: node not attached to store")
)

// Value is one version of a key's data.
type Value struct {
	Data    []byte
	Version int
}

// clone returns a deep copy so callers cannot alias store internals.
func (v Value) clone() Value {
	d := make([]byte, len(v.Data))
	copy(d, v.Data)
	return Value{Data: d, Version: v.Version}
}

// Options configures a Store.
type Options struct {
	// ReplicationFactor is the number of copies beyond the owner
	// (0 = owner only). The paper uses "a fixed replication factor".
	ReplicationFactor int
	// CacheEnabled turns on path caching of get results.
	CacheEnabled bool
	// Centralized selects the alternative metadata layer the paper names
	// in §III-A ("there exist many alternative implementations of this
	// layer ... including centralized ones"): every key lives on a single
	// coordinator node (the first to attach). Lookups are one direct hop;
	// the coordinator is a single point of failure. The DHT/centralized
	// ablation compares the two.
	Centralized bool
}

// Broadcaster is an optional capability of the wire: delivering one
// notification to several peers concurrently instead of one after the
// other. The replica push uses it when available, so a put's replication
// cost is the slowest single delivery rather than the sum — the network
// layer models the overlapping messages deterministically.
type Broadcaster interface {
	Broadcast(from ids.ID, to []ids.ID)
}

// GetResult reports a completed lookup.
type GetResult struct {
	Value Value
	// Hops is the number of overlay hops the lookup travelled.
	Hops int
	// SuperHops counts the hops that landed on a regional super-peer
	// (always 0 with the aggregation tier disabled).
	SuperHops int
	// FromCache reports whether the result was served from a path cache
	// (or the local store) rather than the key's owner.
	FromCache bool
}

// PutResult reports a completed write.
type PutResult struct {
	// Version assigned to the stored value.
	Version int
	// Hops travelled to reach the owner.
	Hops int
	// SuperHops counts the hops that landed on a regional super-peer.
	SuperHops int
	// Owner that now holds the primary copy.
	Owner ids.ID
}

// record is everything one node keeps for one key. The chains are shared
// with other nodes and never written in place: a field is only ever
// replaced whole. A record that holds nothing is deleted.
type record struct {
	entry   []Value  // primary or replica copy
	cache   []Value  // path-cached copy
	holders []ids.ID // owner side: who caches the key, ascending
}

// addHolder inserts id into the ascending holder list. The list is copied
// rather than grown in place, so a Put that took the old list keeps it.
func (rec *record) addHolder(id ids.ID) {
	i, found := slices.BinarySearch(rec.holders, id)
	if found {
		return
	}
	hs := make([]ids.ID, len(rec.holders)+1)
	copy(hs, rec.holders[:i])
	hs[i] = id
	copy(hs[i+1:], rec.holders[i:])
	rec.holders = hs
}

// nodeStore is one node's slice of the distributed store.
type nodeStore struct {
	mu   sync.Mutex
	recs map[ids.ID]*record
}

func newNodeStore() *nodeStore {
	return &nodeStore{recs: make(map[ids.ID]*record)}
}

// record returns ns's record for key, creating it. ns.mu must be held.
func (ns *nodeStore) record(key ids.ID) *record {
	rec := ns.recs[key]
	if rec == nil {
		rec = &record{}
		ns.recs[key] = rec
	}
	return rec
}

// entry returns the authoritative chain ns holds for key, or nil.
func (ns *nodeStore) entry(key ids.ID) []Value {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if rec := ns.recs[key]; rec != nil {
		return rec.entry
	}
	return nil
}

// offer installs the non-empty chain as ns's authoritative copy of key if
// it is newer than the copy ns holds, and reports whether it did.
func (ns *nodeStore) offer(key ids.ID, chain []Value) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	rec := ns.record(key)
	if !chainNewer(chain, rec.entry) {
		return false
	}
	rec.entry = chain
	return true
}

// entryKeys returns the keys ns holds an authoritative copy of, ascending.
func (ns *nodeStore) entryKeys() []ids.ID {
	ns.mu.Lock()
	out := make([]ids.ID, 0, len(ns.recs))
	for k, rec := range ns.recs {
		if rec.entry != nil {
			out = append(out, k)
		}
	}
	ns.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Store is the distributed key-value store spanning one home cloud.
type Store struct {
	mesh *overlay.Mesh
	wire overlay.Wire
	opts Options

	mu          sync.RWMutex
	nodes       map[ids.ID]*nodeStore
	coordinator ids.ID // centralized mode: the node holding every key

	// dirty over-approximates the set of nodes holding authoritative
	// entries: a node is marked at every site that writes entries and only
	// unmarked on Detach. Churn reactions (repair, handOver) are no-ops on
	// nodes without entries, so walking the dirty set instead of the full
	// membership produces byte-identical wire traffic while a churn event
	// costs O(dirty) instead of O(N).
	dirtyMu sync.Mutex
	dirty   map[ids.ID]bool

	stats Stats
}

// markDirty records that node may now hold authoritative entries.
func (s *Store) markDirty(node ids.ID) {
	s.dirtyMu.Lock()
	if s.dirty == nil {
		s.dirty = make(map[ids.ID]bool)
	}
	s.dirty[node] = true
	s.dirtyMu.Unlock()
}

// dirtySorted snapshots the dirty set in ascending ID order, so churn
// reactions — and the wire traffic they drive — happen in one
// deterministic order.
func (s *Store) dirtySorted() []ids.ID {
	s.dirtyMu.Lock()
	out := make([]ids.ID, 0, len(s.dirty))
	for id := range s.dirty {
		out = append(out, id)
	}
	s.dirtyMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats counts store activity (used by the caching/replication ablations).
type Stats struct {
	mu        sync.Mutex
	Lookups   int
	CacheHits int
	PutOps    int
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() (lookups, cacheHits, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Lookups, s.CacheHits, s.PutOps
}

// New returns a store over the mesh and registers the churn handlers
// that keep data available across joins and departures. Each
// participating node must be registered with Attach after joining the
// overlay.
//
// One handler pair serves the whole mesh: a membership event walks the
// dirty set in ascending ID order, which is exactly the set of nodes
// where repair or handOver has anything to do (both are no-ops at a node
// without entries, and at one that has left the mesh, because they first
// resolve the node's router). A handler per attached node would produce
// the same wire traffic at O(N) dispatch per event — at city scale that
// dominated churn cost.
func New(mesh *overlay.Mesh, wire overlay.Wire, opts Options) *Store {
	if opts.ReplicationFactor < 0 {
		opts.ReplicationFactor = 0
	}
	s := &Store{
		mesh:  mesh,
		wire:  wire,
		opts:  opts,
		nodes: make(map[ids.ID]*nodeStore),
	}
	mesh.OnDeparture(func(departed overlay.Member) {
		for _, d := range s.dirtySorted() {
			if d != departed.ID {
				s.repair(d)
			}
		}
	})
	mesh.OnJoin(func(joined overlay.Member) {
		for _, d := range s.dirtySorted() {
			if d != joined.ID {
				s.handOver(d, joined.ID)
			}
		}
	})
	return s
}

// Stats exposes the activity counters.
func (s *Store) Stats() *Stats { return &s.stats }

// Attach registers node as a participant and pulls the keys it is now
// responsible for.
func (s *Store) Attach(node ids.ID) {
	s.mu.Lock()
	if _, ok := s.nodes[node]; ok {
		s.mu.Unlock()
		return
	}
	s.nodes[node] = newNodeStore()
	if s.coordinator == 0 {
		s.coordinator = node
	}
	s.mu.Unlock()

	// Nodes attach after joining the mesh, so the join handler ran before
	// this slice existed. Pull the keys this node is now responsible for
	// from the existing members. Only dirty nodes can hold entries, so the
	// pull visits them alone — hand-over from a clean node moves nothing
	// and sends nothing, so the skip is unobservable while an attach costs
	// O(dirty) instead of O(N).
	for _, other := range s.dirtySorted() {
		if other != node {
			s.handOver(other, node)
		}
	}
}

// Detach removes a node's slice (after it has left the mesh).
func (s *Store) Detach(node ids.ID) {
	s.mu.Lock()
	delete(s.nodes, node)
	s.mu.Unlock()
	s.dirtyMu.Lock()
	delete(s.dirty, node)
	s.dirtyMu.Unlock()
}

func (s *Store) node(id ids.ID) (*nodeStore, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDetached, id)
	}
	return ns, nil
}

// locateOwner resolves the node responsible for key from the requester's
// position: the DHT route in the default mode, or one direct exchange
// with the coordinator in centralized mode. superHops counts the hops
// that landed on regional super-peers (0 with the tier disabled).
func (s *Store) locateOwner(from, key ids.ID) (owner ids.ID, hops, superHops int, err error) {
	if s.opts.Centralized {
		s.mu.RLock()
		coord := s.coordinator
		_, alive := s.nodes[coord]
		s.mu.RUnlock()
		if coord == 0 || !alive {
			return 0, 0, 0, fmt.Errorf("kv: %w (coordinator down)", ErrNotFound)
		}
		if coord != from {
			s.wire.Send(from, coord)
			return coord, 1, 0, nil
		}
		return coord, 0, 0, nil
	}
	res, err := s.mesh.Route(from, key)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Owner.ID, res.Hops, res.SuperHops, nil
}

// Put stores data under key, starting the request at node from. The write
// is routed to the key's owner, applied under policy, replicated, and any
// path caches of the key are refreshed ("whenever a key-value entry is
// modified, the corresponding caches are also updated").
func (s *Store) Put(from, key ids.ID, data []byte, policy WritePolicy) (PutResult, error) {
	if _, err := s.node(from); err != nil {
		return PutResult{}, err
	}
	s.stats.mu.Lock()
	s.stats.PutOps++
	s.stats.mu.Unlock()

	ownerID, hops, superHops, err := s.locateOwner(from, key)
	if err != nil {
		return PutResult{}, fmt.Errorf("kv: put %s: %w", key, err)
	}
	ownerStore, err := s.node(ownerID)
	if err != nil {
		return PutResult{}, err
	}
	s.markDirty(ownerID)

	ownerStore.mu.Lock()
	rec := ownerStore.record(key)
	chain := rec.entry
	var version int
	switch policy {
	case Chain:
		// Copy-on-write: whoever holds the old chain keeps it unchanged.
		version = len(chain) + 1
		chain = append(chain[:len(chain):len(chain)], Value{Data: cloneBytes(data), Version: version})
	case ErrorIfExists:
		if len(chain) > 0 {
			ownerStore.mu.Unlock()
			return PutResult{}, fmt.Errorf("kv: put %s: %w", key, ErrExists)
		}
		version = 1
		chain = []Value{{Data: cloneBytes(data), Version: version}}
	default: // Overwrite
		version = 1
		if len(chain) > 0 {
			version = chain[len(chain)-1].Version + 1
		}
		chain = []Value{{Data: cloneBytes(data), Version: version}}
	}
	rec.entry = chain
	holders := rec.holders
	ownerStore.mu.Unlock()

	s.replicate(ownerID, key, chain)
	s.refreshCaches(ownerID, key, chain, holders)

	return PutResult{Version: version, Hops: hops, SuperHops: superHops, Owner: ownerID}, nil
}

// replicate pushes the full chain to the replica set beyond the owner.
// The copies are applied in replica-set order; the wire is charged once
// for the whole push — concurrently when the wire can broadcast, falling
// back to sequential sends over plain wires.
func (s *Store) replicate(owner, key ids.ID, chain []Value) {
	if s.opts.ReplicationFactor == 0 || s.opts.Centralized {
		return
	}
	r, err := s.mesh.Router(owner)
	if err != nil {
		return
	}
	targets := make([]ids.ID, 0, s.opts.ReplicationFactor)
	for _, m := range r.ReplicaSet(key, s.opts.ReplicationFactor+1) {
		if m.ID == owner {
			continue
		}
		rs, err := s.node(m.ID)
		if err != nil {
			continue
		}
		rs.mu.Lock()
		rs.record(key).entry = chain
		rs.mu.Unlock()
		s.markDirty(m.ID)
		targets = append(targets, m.ID)
	}
	if len(targets) == 0 {
		return
	}
	if bc, ok := s.wire.(Broadcaster); ok {
		bc.Broadcast(owner, targets)
		return
	}
	for _, t := range targets {
		s.wire.Send(owner, t)
	}
}

// refreshCaches pushes the updated chain to every node caching the key.
func (s *Store) refreshCaches(owner, key ids.ID, chain []Value, holders []ids.ID) {
	for _, h := range holders {
		hs, err := s.node(h)
		if err != nil {
			continue
		}
		s.wire.Send(owner, h)
		hs.mu.Lock()
		if rec := hs.recs[key]; rec != nil && rec.cache != nil {
			rec.cache = chain
		}
		hs.mu.Unlock()
	}
}

// Get returns the latest version of key, starting at node from. The local
// store and caches on the routing path can satisfy the lookup early.
func (s *Store) Get(from, key ids.ID) (GetResult, error) {
	chain, hops, superHops, cached, err := s.getChain(from, key)
	if err != nil {
		return GetResult{}, err
	}
	return GetResult{
		Value:     chain[len(chain)-1].clone(),
		Hops:      hops,
		SuperHops: superHops,
		FromCache: cached,
	}, nil
}

// GetAll returns the full version chain of key (meaningful with the Chain
// write policy), oldest first.
func (s *Store) GetAll(from, key ids.ID) ([]Value, int, error) {
	chain, hops, _, _, err := s.getChain(from, key)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Value, len(chain))
	for i, v := range chain {
		out[i] = v.clone()
	}
	return out, hops, nil
}

// GetRef is the zero-copy read path for trusted callers such as the
// metadata layer, which decodes the value and discards it. The returned
// Value is the store's one copy of that version: the caller must treat
// Data as read-only. Nothing writes it after Put, so a borrow keeps the
// bytes it was taken with. Everyone else should use Get, which clones.
//
// c4h:hotpath
func (s *Store) GetRef(from, key ids.ID) (GetResult, error) {
	chain, hops, superHops, cached, err := s.getChain(from, key)
	if err != nil {
		return GetResult{}, err
	}
	return GetResult{
		Value:     chain[len(chain)-1],
		Hops:      hops,
		SuperHops: superHops,
		FromCache: cached,
	}, nil
}

// Holders reports which nodes currently hold an authoritative copy of
// key — the owner first, then its replica set in replica-set order —
// without moving any data. Read paths use it to spread load across the
// copies replication already paid for.
func (s *Store) Holders(from, key ids.ID) ([]ids.ID, error) {
	if _, err := s.node(from); err != nil {
		return nil, err
	}
	ownerID, _, _, err := s.locateOwner(from, key)
	if err != nil {
		return nil, fmt.Errorf("kv: holders %s: %w", key, err)
	}
	out := []ids.ID{ownerID}
	if s.opts.ReplicationFactor == 0 || s.opts.Centralized {
		return out, nil
	}
	r, err := s.mesh.Router(ownerID)
	if err != nil {
		return out, nil
	}
	for _, m := range r.ReplicaSet(key, s.opts.ReplicationFactor+1) {
		if m.ID != ownerID {
			out = append(out, m.ID)
		}
	}
	return out, nil
}

func (s *Store) getChain(from, key ids.ID) (chain []Value, hops, superHops int, cached bool, err error) {
	fromStore, err := s.node(from)
	if err != nil {
		return nil, 0, 0, false, err
	}
	s.stats.mu.Lock()
	s.stats.Lookups++
	s.stats.mu.Unlock()

	// Local copy (primary, replica, or cache) short-circuits the lookup.
	if c, fromCache, ok := fromStore.lookup(key); ok {
		if fromCache {
			s.stats.mu.Lock()
			s.stats.CacheHits++
			s.stats.mu.Unlock()
		}
		return c, 0, 0, true, nil
	}

	if s.opts.Centralized {
		ownerID, h, sh, lerr := s.locateOwner(from, key)
		if lerr != nil {
			return nil, 0, 0, false, fmt.Errorf("kv: get %s: %w", key, lerr)
		}
		ownerStore, nerr := s.node(ownerID)
		if nerr != nil {
			return nil, h, sh, false, nerr
		}
		if c, _, ok := ownerStore.lookup(key); ok {
			s.populatePathCaches(key, c, []ids.ID{from}, ownerID)
			return c, h, sh, false, nil
		}
		return nil, h, sh, false, fmt.Errorf("kv: get %s: %w", key, ErrNotFound)
	}

	r, err := s.mesh.Router(from)
	if err != nil {
		return nil, 0, 0, false, err
	}
	// Walk hop-by-hop so intermediate caches can answer. NextHopFrom is
	// exactly Router.NextHop with the super-peer tier disabled, and routes
	// through the regional aggregators when it is enabled.
	cur := r
	visited := []ids.ID{from}
	for {
		next, forward, super := s.mesh.NextHopFrom(cur, key)
		if !forward {
			break
		}
		s.wire.Send(cur.Self().ID, next.ID)
		hops++
		if super {
			superHops++
		}
		nextStore, nerr := s.node(next.ID)
		if nerr != nil {
			return nil, hops, superHops, false, nerr
		}
		if c, fromCache, ok := nextStore.lookup(key); ok {
			if fromCache {
				s.stats.mu.Lock()
				s.stats.CacheHits++
				s.stats.mu.Unlock()
			}
			s.populatePathCaches(key, c, visited, next.ID)
			return c, hops, superHops, true, nil
		}
		visited = append(visited, next.ID)
		nr, rerr := s.mesh.Router(next.ID)
		if rerr != nil {
			return nil, hops, superHops, false, rerr
		}
		cur = nr
	}

	// cur is the owner and had no entry.
	return nil, hops, superHops, false, fmt.Errorf("kv: get %s: %w", key, ErrNotFound)
}

// populatePathCaches caches the chain on the intermediate hops of a
// successful lookup and records the holders at the serving node.
func (s *Store) populatePathCaches(key ids.ID, chain []Value, path []ids.ID, server ids.ID) {
	if !s.opts.CacheEnabled {
		return
	}
	srv, err := s.node(server)
	if err != nil {
		return
	}
	for _, id := range path {
		ns, err := s.node(id)
		if err != nil {
			continue
		}
		ns.mu.Lock()
		ns.record(key).cache = chain
		ns.mu.Unlock()
		srv.mu.Lock()
		srv.record(key).addHolder(id)
		srv.mu.Unlock()
	}
}

// lookup returns the chain held locally, preferring authoritative copies
// over cached ones. The returned slice is the shared chain itself, which
// nothing writes after Put builds it; Get and GetAll copy where they hand
// data out.
// c4h:hotpath
func (ns *nodeStore) lookup(key ids.ID) (chain []Value, fromCache, ok bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if rec := ns.recs[key]; rec != nil {
		if len(rec.entry) > 0 {
			return rec.entry, false, true
		}
		if len(rec.cache) > 0 {
			return rec.cache, true, true
		}
	}
	return nil, false, false
}

// Delete removes key everywhere: owner, replicas, and caches.
func (s *Store) Delete(from, key ids.ID) error {
	if _, err := s.node(from); err != nil {
		return err
	}
	ownerID, _, _, err := s.locateOwner(from, key)
	if err != nil {
		return fmt.Errorf("kv: delete %s: %w", key, err)
	}
	ownerStore, err := s.node(ownerID)
	if err != nil {
		return err
	}
	ownerStore.mu.Lock()
	rec := ownerStore.recs[key]
	if rec == nil || rec.entry == nil {
		// Nothing to delete: leave the entry and cache-holder bookkeeping
		// untouched, so later refreshCaches still reaches live caches.
		ownerStore.mu.Unlock()
		return fmt.Errorf("kv: delete %s: %w", key, ErrNotFound)
	}
	// The whole record goes: a path-cached chain the owner kept from
	// before it took the key over would otherwise still answer its Gets.
	holders := rec.holders
	delete(ownerStore.recs, key)
	ownerStore.mu.Unlock()
	// Purge replicas and caches everywhere (at home scale replica sets may
	// have shifted since the write, so a sweep is the robust choice).
	s.mu.RLock()
	otherIDs := make([]ids.ID, 0, len(s.nodes))
	for id := range s.nodes {
		if id != ownerID {
			otherIDs = append(otherIDs, id)
		}
	}
	s.mu.RUnlock()
	sort.Slice(otherIDs, func(i, j int) bool { return otherIDs[i] < otherIDs[j] })
	for _, id := range otherIDs {
		ns, err := s.node(id)
		if err != nil {
			continue
		}
		ns.mu.Lock()
		// A replica or cache that served reads indexed its own cache
		// holders; every one of those caches is purged by this sweep.
		had := ns.recs[key]
		delete(ns.recs, key)
		ns.mu.Unlock()
		_, registered := slices.BinarySearch(holders, id)
		if (had != nil && (had.entry != nil || had.cache != nil)) || registered {
			s.wire.Send(ownerID, id)
		}
	}
	return nil
}

// Keys returns all keys for which node holds an authoritative copy.
func (s *Store) Keys(node ids.ID) ([]ids.ID, error) {
	ns, err := s.node(node)
	if err != nil {
		return nil, err
	}
	return ns.entryKeys(), nil
}

// repair runs at a surviving node after a peer departed: every key this
// node holds authoritatively is re-pushed to its (possibly new) replica
// set, restoring both ownership and the replication factor. This is the
// "departing node's keys are always redistributed" mechanism, driven by
// the replicas when the departure was a crash.
func (s *Store) repair(node ids.ID) {
	if s.opts.Centralized {
		return // nothing to repair: the coordinator holds everything
	}
	ns, err := s.node(node)
	if err != nil {
		return
	}
	r, err := s.mesh.Router(node)
	if err != nil {
		return
	}
	for _, key := range ns.entryKeys() {
		chain := ns.entry(key)
		if len(chain) == 0 {
			continue
		}
		for _, m := range r.ReplicaSet(key, s.opts.ReplicationFactor+1) {
			if m.ID == node {
				continue
			}
			ms, err := s.node(m.ID)
			if err != nil {
				continue
			}
			if ms.offer(key, chain) {
				s.markDirty(m.ID)
				s.wire.Send(node, m.ID)
			}
		}
	}
}

// handOver runs at an existing node when a newcomer joins: keys the
// newcomer now owns (or should replicate) are pushed to it.
func (s *Store) handOver(node, newcomer ids.ID) {
	if s.opts.Centralized {
		return
	}
	ns, err := s.node(node)
	if err != nil {
		return
	}
	r, err := s.mesh.Router(node)
	if err != nil {
		return
	}
	nsNew, err := s.node(newcomer)
	if err != nil {
		return // newcomer not attached yet; it will sync when attached
	}
	for _, key := range ns.entryKeys() {
		inSet := false
		for _, m := range r.ReplicaSet(key, s.opts.ReplicationFactor+1) {
			if m.ID == newcomer {
				inSet = true
				break
			}
		}
		if !inSet {
			continue
		}
		chain := ns.entry(key)
		if len(chain) == 0 {
			continue
		}
		s.wire.Send(node, newcomer)
		nsNew.offer(key, chain)
		s.markDirty(newcomer)
	}
}

// Depart gracefully removes node from the store and the mesh: its keys
// are pushed to their next-closest holders before it disappears, so even
// with replication disabled no data is lost on a clean leave.
func (s *Store) Depart(node ids.ID) error {
	ns, err := s.node(node)
	if err != nil {
		return err
	}
	r, err := s.mesh.Router(node)
	if err != nil {
		return err
	}
	for _, key := range ns.entryKeys() {
		chain := ns.entry(key)
		if len(chain) == 0 {
			continue
		}
		// Push to the rf+1 closest members besides ourselves: after we
		// leave, the first of them is the key's new owner.
		for _, m := range r.ReplicaSet(key, s.opts.ReplicationFactor+2) {
			if m.ID == node {
				continue
			}
			ms, merr := s.node(m.ID)
			if merr != nil {
				continue
			}
			s.wire.Send(node, m.ID)
			ms.offer(key, chain)
			s.markDirty(m.ID)
		}
	}
	if err := s.mesh.Leave(node); err != nil {
		return err
	}
	s.Detach(node)
	return nil
}

// chainNewer reports whether candidate should replace existing during a
// repair/hand-over merge. Chain length alone is version-blind: Overwrite
// chains always have length 1 but a rising Version, so a stale replica
// would never be refreshed by a length comparison. The last value's
// Version is the authority; length only breaks ties (Chain-policy chains
// carry Version == index, so a longer chain at the same tip version means
// more history).
func chainNewer(candidate, existing []Value) bool {
	if len(candidate) == 0 {
		return false
	}
	if len(existing) == 0 {
		return true
	}
	cv := candidate[len(candidate)-1].Version
	ev := existing[len(existing)-1].Version
	if cv != ev {
		return cv > ev
	}
	return len(candidate) > len(existing)
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
