package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/erasure"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/netsim"
	"cloud4home/internal/overlay"
	"cloud4home/internal/policy"
	"cloud4home/internal/vclock"
)

// lanWire charges LAN cost for each overlay control message: half an RTT
// on the wire plus per-hop protocol processing. With the calibrated
// constants a typical 2–3 hop DHT lookup costs the paper's ≈12–16 ms
// (Table I).
type lanWire struct {
	net     *netsim.Network
	fabric  *netsim.Resource
	perHop  time.Duration
	msgPath *netsim.Path
}

var (
	_ overlay.Wire   = (*lanWire)(nil)
	_ kv.Broadcaster = (*lanWire)(nil)
)

func newLANWire(net *netsim.Network, fabric *netsim.Resource) *lanWire {
	return &lanWire{
		net:    net,
		fabric: fabric,
		perHop: 4 * time.Millisecond,
		msgPath: &netsim.Path{
			Resources: []*netsim.Resource{fabric},
			RTT:       netsim.LANRTT,
			Jitter:    netsim.LANJitter,
		},
	}
}

// Send implements overlay.Wire.
func (w *lanWire) Send(_, _ ids.ID) {
	w.net.Message(w.msgPath)
	w.net.Clock().Sleep(w.perHop)
}

// Broadcast implements kv.Broadcaster: the deliveries overlap on the LAN,
// so the cost is the slowest message plus one hop's worth of protocol
// processing, rather than the per-recipient sum Send would charge.
func (w *lanWire) Broadcast(_ ids.ID, to []ids.ID) {
	w.net.MessageAll(w.msgPath, len(to))
	w.net.Clock().Sleep(w.perHop)
}

// Home is one Cloud4Home deployment: the overlay, the distributed
// key-value store, the shared LAN fabric, the participating nodes, and
// (optionally) the remote public cloud.
type Home struct {
	clock  *vclock.Virtual
	net    *netsim.Network
	mesh   *overlay.Mesh
	wire   overlay.Wire
	kv     *kv.Store
	fabric *netsim.Resource
	cloud  *cloudsim.Cloud
	// backends is the federated backend roster in attachment order; the
	// default cloud is always entry 0 once attached. Policies index into
	// this order, so it must be stable for a run.
	backends []cloudsim.Backend // guarded by mu

	mu    sync.RWMutex
	nodes map[string]*Node
	// sorted holds the live nodes in ascending address order. AddNode and
	// RemoveNode never write an element a reader may hold: a join past
	// the last address appends, any other change builds a new array. So a
	// reader may iterate a slice it took under mu after unlocking.
	sorted []*Node
	peers  []*Home // federated neighbour homes (§VII v)

	fedMu   sync.Mutex
	fedHits map[string]*Home       // last neighbour that served each name
	fedMiss map[string]fedMissMark // names no neighbour had, with put marks

	cfg  Config     // HomeOptions.Config
	memo decodeMemo // one decoded resource record per live node
}

// HomeOptions configures a Home.
type HomeOptions struct {
	// Seed drives all simulated randomness; same seed ⇒ same run.
	Seed int64
	// KV configures the metadata store (replication, caching).
	KV kv.Options
	// Config is the modeled behaviour every node of the home reads.
	Config Config
}

// Config is one home's modeled behaviour: the knobs of its one VStore++
// service and decision layer (§III), read by every node of the home. The
// zero value reproduces the paper's behaviour bit-for-bit.
type Config struct {
	// Data plane. StripedFetch splits large fetches into contiguous ranges
	// pulled from every live payload holder in parallel, reassembling in
	// dom0; it needs DataReplicas > 0 to have more than one holder.
	StripedFetch bool
	// Pipelined overlaps the inter-node wire phase with the dom0→guest
	// channel drain at page-ring granularity, so large fetches observe
	// Total < DHTLookup + InterNode + InterDomain.
	Pipelined bool
	// DataReplicas is how many extra best-effort payload copies a store
	// places in peers' voluntary bins beside the primary copy.
	DataReplicas int
	// CacheBytes bounds each node's dom0 payload cache; it is further
	// capped by the node's voluntary bin. 0 disables the cache.
	CacheBytes int64

	// Compute plane. Workers is the width of simulated sharded execution
	// (machine.ExecSharded strands). Values ≤ 1 keep the paper's intrinsic
	// Task.Parallelism model; sharding engages only when it strictly beats
	// that model. It sizes virtual time only: how the host runs a kernel
	// is the services package's business.
	Workers int
	// Overlap starts execution on delivered pages while the rest of the
	// input move is still in flight (process-as-pages-arrive): each phase
	// still reports its full cost, and ProcessBreakdown.Overlap the time
	// the fused window saved.
	Overlap bool
	// Speculation hedges a decided process operation onto the top two
	// candidates when their estimates are within defaultSpeculationMargin,
	// cancelling the loser on first completion.
	Speculation bool

	// Faults. Fallback turns holder loss from an error into a retry
	// ladder: a fetch or input move whose primary is gone or lacks the
	// payload — or, streaming into a pipeline, dies mid-transfer — reads a
	// surviving whole copy, else k coded shards, then asks the remote cloud
	// with a charged probe, charging each failed attempt's modeled cost
	// into FetchBreakdown.Retries. A fetch from a neighbour home
	// substitutes a surviving whole copy for a lost primary.
	Fallback bool
	// Repair restores redundancy after a crash: one elected holder of each
	// affected object (see Node.repair) takes over as primary if needed,
	// re-places the missing replicas or shards and rewrites the object's
	// metadata, mirroring the kv layer's metadata repair.
	Repair bool

	// Federation. Backend picks the cloud backend for each TargetCloud
	// placement from the home's attached roster (default cloud first, then
	// attachment order); nil routes everything to the default cloud.
	Backend policy.BackendPolicy
	// ErasureK/ErasureN switch the home tier's redundancy from whole
	// DataReplicas copies to k-of-n Reed–Solomon shards: stores spread n
	// coded shards (each 1/k of the object) over peers' voluntary bins,
	// and any k of them — or the primary copy — serve a fetch. Both zero
	// disables coding; otherwise 1 ≤ K < N ≤ erasure.MaxShards.
	ErasureK, ErasureN int

	// Home. CoalesceFetch merges concurrent remote fetches of the same
	// object: the first requester runs the wire transfer, followers park
	// on a deterministic event and are charged exactly the virtual time
	// until the leader's bytes arrive, then copy the payload locally.
	CoalesceFetch bool
	// SuperPeerRegions, when > 1, partitions the ID space into that many
	// contiguous regions and routes inter-region traffic through each
	// region's super-peer (its lowest-addressed member). Lookup results
	// are unchanged, only the hop structure differs; ≤ 1 keeps flat
	// routing.
	SuperPeerRegions int
}

// erasureOn reports whether home-tier redundancy is coded shards.
func (c Config) erasureOn() bool {
	return c.ErasureK > 0 && c.ErasureN > c.ErasureK
}

// validate rejects half-configured erasure parameters at AddNode time.
func (c Config) validate() error {
	k, n := c.ErasureK, c.ErasureN
	if k == 0 && n == 0 {
		return nil
	}
	if k < 1 || n <= k {
		return fmt.Errorf("core: federation: need 1 <= ErasureK < ErasureN, got k=%d n=%d", k, n)
	}
	if n > erasure.MaxShards {
		return fmt.Errorf("core: federation: ErasureN %d exceeds GF(2^8) limit %d", n, erasure.MaxShards)
	}
	return nil
}

// NewHome builds an empty home cloud on the given clock.
func NewHome(clock *vclock.Virtual, opts HomeOptions) *Home {
	net := netsim.New(clock, opts.Seed)
	fabric := netsim.NewResource("home-lan", netsim.LANFabricBps)
	wire := newLANWire(net, fabric)
	mesh := overlay.NewMesh(wire)
	if opts.Config.SuperPeerRegions > 1 {
		mesh.EnableSuperPeers(opts.Config.SuperPeerRegions)
	}
	return &Home{
		clock:  clock,
		net:    net,
		mesh:   mesh,
		wire:   wire,
		kv:     kv.New(mesh, wire, opts.KV),
		fabric: fabric,
		nodes:  make(map[string]*Node),
		cfg:    opts.Config,
	}
}

// Clock returns the home's clock.
func (h *Home) Clock() *vclock.Virtual { return h.clock }

// Net returns the home's network simulator.
func (h *Home) Net() *netsim.Network { return h.net }

// KV returns the metadata store.
func (h *Home) KV() *kv.Store { return h.kv }

// Mesh returns the overlay.
func (h *Home) Mesh() *overlay.Mesh { return h.mesh }

// Fabric returns the shared LAN resource (e.g. to degrade it).
func (h *Home) Fabric() *netsim.Resource { return h.fabric }

// Cloud returns the attached public cloud, or nil.
func (h *Home) Cloud() *cloudsim.Cloud {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.cloud
}

// AttachCloud connects the home to a remote public cloud. Nodes flagged
// as gateways route all remote interactions (§III-C). The cloud becomes
// the first entry of the federated backend roster.
func (h *Home) AttachCloud(c *cloudsim.Cloud) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cloud = c
	if c == nil {
		return
	}
	for i, b := range h.backends {
		if b.Name() == c.Name() {
			h.backends[i] = c
			return
		}
	}
	// Default cloud leads the roster so index 0 stays the historical
	// backend even when extras were attached first.
	h.backends = append([]cloudsim.Backend{c}, h.backends...)
}

// AttachBackend adds a federated storage backend to the roster. The
// attachment order is the policy-visible order (after the default
// cloud); attaching a backend with an existing name replaces it.
func (h *Home) AttachBackend(b cloudsim.Backend) {
	if b == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, old := range h.backends {
		if old.Name() == b.Name() {
			h.backends[i] = b
			return
		}
	}
	h.backends = append(h.backends, b)
}

// Backends returns the federated backend roster in attachment order
// (default cloud first).
func (h *Home) Backends() []cloudsim.Backend {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]cloudsim.Backend(nil), h.backends...)
}

// backendFor resolves a metadata Backend field to a roster entry. The
// empty name is the default cloud — every record written with a nil
// Config.Backend resolves there, preserving pre-federation behaviour.
func (h *Home) backendFor(name string) (cloudsim.Backend, error) {
	if name == "" {
		c := h.Cloud()
		if c == nil {
			return nil, ErrNoCloud
		}
		return c, nil
	}
	for _, b := range h.Backends() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("core: backend %q not attached: %w", name, ErrNoCloud)
}

// Node returns a live node by address.
func (h *Home) Node(addr string) (*Node, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n, ok := h.nodes[addr]
	return n, ok
}

// Nodes returns all live nodes, ordered by address so that callers
// iterating over the home behave deterministically. The slice is the
// caller's own copy.
func (h *Home) Nodes() []*Node {
	m := h.members()
	return append(make([]*Node, 0, len(m)), m...)
}

// byAddr orders nodes by address, for searches in Home.sorted.
func byAddr(n *Node, addr string) int { return strings.Compare(n.addr, addr) }

// members returns the address-sorted membership snapshot, read-only: it
// is shared with every other reader, and no join or leave changes it.
func (h *Home) members() []*Node {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sorted
}

// PublishAll pushes a fresh resource record for every live node, so the
// decision process sees current monitor data without waiting a period.
// Nodes that fail to publish are reported in the joined error; the rest
// still publish.
func (h *Home) PublishAll() error {
	var errs []error
	for _, n := range h.members() {
		if err := n.mon.PublishOnce(); err != nil {
			errs = append(errs, fmt.Errorf("publish %s: %w", n.addr, err))
		}
	}
	return errors.Join(errs...)
}

// Gateway returns a node hosting the public cloud interface module. "At
// least one of these nodes must provide an interface among the home and
// remote cloud services" (§III).
func (h *Home) Gateway() (*Node, bool) {
	// Iterate the sorted snapshot, not the map: with several gateways
	// configured, every node (and every run) must elect the same one.
	for _, n := range h.members() {
		if n.cfg.CloudGateway {
			return n, true
		}
	}
	return nil, false
}

// RemoveNode departs a node gracefully (its keys and voluntary-bin
// objects are handed over) or crashes it.
func (h *Home) RemoveNode(addr string, graceful bool) error {
	h.mu.Lock()
	n, ok := h.nodes[addr]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("core: remove node: unknown addr %q", addr)
	}
	delete(h.nodes, addr)
	i, _ := slices.BinarySearchFunc(h.sorted, addr, byAddr)
	h.sorted = slices.Concat(h.sorted[:i], h.sorted[i+1:])
	h.memo.drop(n.mon.Key())
	h.mu.Unlock()
	return n.shutdown(graceful)
}

// Federate links this home with a neighbour home so that fetches can fall
// through to it — the "neighborhood security" scenario of §VII(v) where
// "multiple Cloud4Home systems interact".
func (h *Home) Federate(peer *Home) {
	if peer == nil || peer == h {
		return
	}
	h.mu.Lock()
	for _, p := range h.peers {
		if p == peer {
			h.mu.Unlock()
			return
		}
	}
	h.peers = append(h.peers, peer)
	h.mu.Unlock()
	peer.Federate(h)
}

// invalidateDataCaches drops any dom0-cached payload for name across the
// home, so a relocated, overwritten, or deleted object can never be
// served stale. No wire time is charged here: the notification piggybacks
// on the metadata update the kv layer already pushed for the same event.
func (h *Home) invalidateDataCaches(name string) {
	for _, n := range h.members() {
		if n.dataCache != nil {
			n.dataCache.invalidate(name)
		}
	}
}

// fedMissMark records a lookup that failed at every neighbour, along with
// each neighbour's kv put count at the time. Objects only appear in a
// neighbour home through kv puts, so while every count holds still the
// negative answer is provably still valid and the probes can be skipped.
type fedMissMark struct {
	puts []int
}

// federatedLookup searches neighbour homes for an object's metadata.
// Instead of walking every neighbour on every miss, it short-circuits to
// the neighbour that served the name last time, and remembers names no
// neighbour had (invalidated by neighbour put activity, see fedMissMark).
// Each neighbour actually queried counts as one federated probe in the
// requester's OpStats.
func (h *Home) federatedLookup(name string, requester *Node) (*Home, ObjectMeta, bool) {
	h.mu.RLock()
	peers := make([]*Home, len(h.peers))
	copy(peers, h.peers)
	h.mu.RUnlock()
	if len(peers) == 0 {
		return nil, ObjectMeta{}, false
	}

	h.fedMu.Lock()
	hit := h.fedHits[name]
	miss, hasMiss := h.fedMiss[name]
	h.fedMu.Unlock()

	probe := func(peer *Home) (ObjectMeta, bool) {
		nodes := peer.members()
		if len(nodes) == 0 {
			return ObjectMeta{}, false
		}
		if requester != nil {
			requester.ops.federatedProbes.Add(1)
		}
		gr, err := peer.kv.GetRef(nodes[0].id, ids.HashString(name))
		if err != nil {
			return ObjectMeta{}, false
		}
		meta, err := UnmarshalObjectMeta(gr.Value.Data)
		if err != nil {
			return ObjectMeta{}, false
		}
		return meta, true
	}

	if hit != nil {
		if meta, ok := probe(hit); ok {
			return hit, meta, true
		}
	}
	if hasMiss && len(miss.puts) == len(peers) {
		unchanged := true
		for i, peer := range peers {
			if _, _, puts := peer.kv.Stats().Snapshot(); puts != miss.puts[i] {
				unchanged = false
				break
			}
		}
		if unchanged {
			return nil, ObjectMeta{}, false
		}
	}
	for _, peer := range peers {
		if peer == hit {
			continue // already probed above
		}
		if meta, ok := probe(peer); ok {
			h.fedMu.Lock()
			if h.fedHits == nil {
				h.fedHits = make(map[string]*Home)
			}
			h.fedHits[name] = peer
			delete(h.fedMiss, name)
			h.fedMu.Unlock()
			return peer, meta, true
		}
	}
	marks := make([]int, len(peers))
	for i, peer := range peers {
		_, _, marks[i] = peer.kv.Stats().Snapshot()
	}
	h.fedMu.Lock()
	if h.fedMiss == nil {
		h.fedMiss = make(map[string]fedMissMark)
	}
	h.fedMiss[name] = fedMissMark{puts: marks}
	delete(h.fedHits, name)
	h.fedMu.Unlock()
	return nil, ObjectMeta{}, false
}
