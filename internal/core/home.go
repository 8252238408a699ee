package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/netsim"
	"cloud4home/internal/overlay"
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
	clock  vclock.Clock
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
	peers []*Home // federated neighbour homes (§VII v)

	fedMu   sync.Mutex
	fedHits map[string]*Home       // last neighbour that served each name
	fedMiss map[string]fedMissMark // names no neighbour had, with put marks

	coalesceFetch bool       // HomeOptions.CoalesceFetch
	lazyMonitors  bool       // HomeOptions.LazyMonitors
	memo          decodeMemo // one decoded resource record per live node
}

// HomeOptions configures a Home.
type HomeOptions struct {
	// Seed drives all simulated randomness; same seed ⇒ same run.
	Seed int64
	// KV configures the metadata store (replication, caching).
	KV kv.Options
	// The three knobs below are modeled behaviour changes; their zero
	// values reproduce the paper's behaviour bit-for-bit.

	// CoalesceFetch merges concurrent remote fetches of the same object:
	// the first requester runs the wire transfer, followers park on a
	// deterministic event and are charged exactly the virtual time until
	// the leader's bytes arrive, then copy the payload locally.
	CoalesceFetch bool
	// LazyMonitors materialises resource records on demand instead of
	// running one periodic publisher goroutine per node: a node's record
	// is published when a decision path first reads it and refreshed only
	// once its validity window (the monitor period) has lapsed. At city
	// scale this removes N always-on sleepers and N puts per period for
	// records nobody reads.
	LazyMonitors bool
	// SuperPeerRegions, when > 1, partitions the ID space into that many
	// contiguous regions and routes inter-region traffic through each
	// region's super-peer (its lowest-addressed member), giving the
	// home → regional aggregator → owner hierarchy a city of homes needs
	// instead of a flat hop sequence. Lookup results (owners, values) are
	// unchanged — only the hop structure differs; ≤ 1 keeps flat routing.
	SuperPeerRegions int
}

// NewHome builds an empty home cloud on the given clock.
func NewHome(clock vclock.Clock, opts HomeOptions) *Home {
	net := netsim.New(clock, opts.Seed)
	fabric := netsim.NewResource("home-lan", netsim.LANFabricBps)
	wire := newLANWire(net, fabric)
	mesh := overlay.NewMesh(wire)
	if opts.SuperPeerRegions > 1 {
		mesh.EnableSuperPeers(opts.SuperPeerRegions)
	}
	return &Home{
		clock:  clock,
		net:    net,
		mesh:   mesh,
		wire:   wire,
		kv:     kv.New(mesh, wire, opts.KV),
		fabric: fabric,
		nodes:  make(map[string]*Node),

		coalesceFetch: opts.CoalesceFetch,
		lazyMonitors:  opts.LazyMonitors,
	}
}

// Clock returns the home's clock.
func (h *Home) Clock() vclock.Clock { return h.clock }

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
// empty name is the default cloud — every record written under a zero
// FederationConfig resolves there, preserving pre-federation behaviour.
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
// iterating over the home behave deterministically.
func (h *Home) Nodes() []*Node {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Node, 0, len(h.nodes))
	for _, n := range h.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// PublishAll pushes a fresh resource record for every live node, so the
// decision process sees current monitor data without waiting a period.
// Nodes that fail to publish are reported in the joined error; the rest
// still publish.
func (h *Home) PublishAll() error {
	var errs []error
	for _, n := range h.Nodes() {
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
	for _, n := range h.Nodes() {
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
	for _, n := range h.Nodes() {
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
		nodes := peer.Nodes()
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
