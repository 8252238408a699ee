package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
	"cloud4home/internal/monitor"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/overlay"
	"cloud4home/internal/policy"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
	"cloud4home/internal/xenchan"
)

// Errors returned by node operations.
var (
	ErrObjectNotFound  = errors.New("core: object not found")
	ErrServiceNotFound = errors.New("core: service not available")
	ErrNoCloud         = errors.New("core: no public cloud attached")
)

// NodeConfig describes one home device joining the Cloud4Home overlay.
type NodeConfig struct {
	// Addr is the node's home-network address ("10.0.0.7:9000").
	Addr string
	// Machine is the VM spec VStore++'s control domain schedules service
	// work on.
	Machine machine.Spec
	// MandatoryBytes and VoluntaryBytes size the two storage bins (§III).
	MandatoryBytes, VoluntaryBytes int64
	// Channel configures the guest↔dom0 shared-memory channel; zero value
	// selects the 32×4 KB default.
	Channel xenchan.Config
	// StorePolicy guides store placement (DefaultLocal if nil).
	StorePolicy policy.StorePolicy
	// DecisionPolicy selects processing targets (Performance if nil).
	DecisionPolicy policy.DecisionPolicy
	// CloudGateway marks this node as hosting the public cloud interface
	// module.
	CloudGateway bool
	// Wireless marks the device as attached over the home's wireless
	// segment: a slower NIC with higher latency and jitter (§I's "mix of
	// wired and wireless links").
	Wireless bool
	// DataDir, when set, backs the node's object bins with real files
	// under this directory (the paper's one-to-one object→file mapping on
	// "a standard file system"); empty keeps objects in memory.
	DataDir string
	// MonitorPeriod is the resource publication interval (default 5 s).
	MonitorPeriod time.Duration
	// DataPlane enables the concurrent data-plane features (striped
	// replica fetch, pipelined transfers, dom0 cache); the zero value is
	// the paper's sequential behaviour.
	DataPlane DataPlaneConfig
	// ComputePlane enables the concurrent compute-plane features (sharded
	// kernels, move/execute overlap, speculative placement); the zero
	// value is the paper's sequential behaviour.
	ComputePlane ComputePlaneConfig
	// Faults enables the fault-tolerance layer (retry/fallback ladder,
	// post-crash payload re-replication); the zero value is the paper's
	// fail-on-holder-loss behaviour.
	Faults FaultConfig
	// Federation enables policy-driven placement across several cloud
	// backends and erasure-coded home-tier redundancy; the zero value is
	// the single-backend, whole-copy behaviour.
	Federation FederationConfig
}

func (c *NodeConfig) applyDefaults() {
	if c.Channel.PageSize == 0 {
		c.Channel = xenchan.DefaultConfig()
	}
	if c.StorePolicy == nil {
		c.StorePolicy = policy.DefaultLocal{}
	}
	if c.DecisionPolicy == nil {
		c.DecisionPolicy = policy.Performance{}
	}
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = 5 * time.Second
	}
}

// Node is one VStore++ participant: its control domain (object store,
// machine, overlay router, monitors) plus the guest-facing session API.
type Node struct {
	home  *Home
	cfg   NodeConfig
	addr  string
	id    ids.ID
	clock vclock.Clock

	router    *overlay.Router
	store     *objstore.Store
	mach      *machine.Machine
	nic       *netsim.Resource
	mon       *monitor.Monitor
	dataCache *dataCache // dom0 payload cache; nil when disabled

	mu       sync.Mutex
	deployed map[ids.ID]services.Spec // guarded by mu; services runnable on this node
	domains  uint16                   // guarded by mu; next guest domain ID

	training atomic.Pointer[trainingSet] // installed face-recognition set; nil until SetTrainingSet

	pathMu sync.Mutex
	paths  map[*Node]*netsim.Path // guarded by pathMu; memoised LAN paths per peer

	flightMu sync.Mutex
	flights  map[string]*fetchFlight // guarded by flightMu; joinable in-flight fetches

	// In-flight non-blocking operations. On the real clock wg joins them;
	// on a virtual clock Flush parks on drained, which the last finisher
	// fires while still a registered worker (see vclock.Virtual.Block for
	// why a WaitGroup inside Block is not a deterministic join).
	wg       sync.WaitGroup
	bgMu     sync.Mutex
	inflight int           // guarded by bgMu
	drained  *vclock.Event // guarded by bgMu; non-nil while a Flush waits

	ops opCounters // cumulative operation counters
}

// AddNode joins a new device to the home cloud. The node joins the
// overlay (neighbours are messaged), attaches to the key-value store,
// and publishes its first resource record.
func (h *Home) AddNode(cfg NodeConfig) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Addr == "" {
		return nil, errors.New("core: node needs an address")
	}
	if err := cfg.Channel.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Federation.validate(); err != nil {
		return nil, err
	}
	mach, err := machine.New(cfg.Machine, h.clock)
	if err != nil {
		return nil, err
	}
	router, err := h.mesh.Join(cfg.Addr)
	if err != nil {
		return nil, err
	}
	nicBps := float64(netsim.NodeNICBps)
	if cfg.Wireless {
		nicBps = netsim.WifiNICBps
	}
	store := objstore.NewMem(cfg.MandatoryBytes, cfg.VoluntaryBytes)
	if cfg.DataDir != "" {
		var serr error
		store, serr = objstore.NewDisk(cfg.DataDir, cfg.MandatoryBytes, cfg.VoluntaryBytes)
		if serr != nil {
			return nil, serr
		}
	}
	n := &Node{
		home:     h,
		cfg:      cfg,
		addr:     cfg.Addr,
		id:       router.Self().ID,
		clock:    h.clock,
		router:   router,
		store:    store,
		mach:     mach,
		nic:      netsim.NewResource("nic:"+cfg.Addr, nicBps),
		deployed: make(map[ids.ID]services.Spec),
	}
	if cb := cfg.DataPlane.CacheBytes; cb > 0 {
		// The cache lives in space the device already volunteered to the
		// pool, so it can never exceed the voluntary bin.
		if cfg.VoluntaryBytes > 0 && cb > cfg.VoluntaryBytes {
			cb = cfg.VoluntaryBytes
		}
		n.dataCache = newDataCache(cb)
	}
	h.kv.Attach(n.id)

	sampler := &monitor.MachineSampler{
		Addr:      cfg.Addr,
		Machine:   mach,
		Store:     n.store,
		Bandwidth: n.nic.Capacity,
		Clock:     h.clock,
	}
	mon, err := monitor.New(h.kv, h.clock, cfg.Addr, sampler, cfg.MonitorPeriod)
	if err != nil {
		return nil, err
	}
	if h.lazyMonitors {
		mon.SetLazy(true)
	}
	n.mon = mon

	h.mu.Lock()
	if _, dup := h.nodes[cfg.Addr]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: node %q already present", cfg.Addr)
	}
	h.nodes[cfg.Addr] = n
	h.mu.Unlock()
	return n, nil
}

// Addr returns the node's home-network address.
func (n *Node) Addr() string { return n.addr }

// ID returns the node's overlay identifier.
func (n *Node) ID() ids.ID { return n.id }

// Machine returns the node's VM.
func (n *Node) Machine() *machine.Machine { return n.mach }

// ObjectStore returns the node's local object store.
func (n *Node) ObjectStore() *objstore.Store { return n.store }

// Monitor returns the node's resource monitor (Start it to publish
// periodically; PublishOnce is called on demand by the decision layer's
// tests and experiments).
func (n *Node) Monitor() *monitor.Monitor { return n.mon }

// NIC returns the node's network interface resource.
func (n *Node) NIC() *netsim.Resource { return n.nic }

// DeployService installs a service on this node and registers it in the
// key-value store with the given routing policy name.
func (n *Node) DeployService(spec services.Spec, policyName string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if n.cfg.Machine.MemMB < spec.MinMemMB {
		return fmt.Errorf("core: %s: node %s VM (%d MB) below service minimum (%d MB)",
			spec.Name, n.addr, n.cfg.Machine.MemMB, spec.MinMemMB)
	}
	if err := services.Register(n.home.kv, n.id, spec, n.addr, policyName); err != nil {
		return err
	}
	n.mu.Lock()
	n.deployed[spec.Key()] = spec
	n.mu.Unlock()
	return nil
}

// DeployCloudService registers a remote-cloud instance as a host of the
// service. The instance must already be launched on the attached cloud.
func (h *Home) DeployCloudService(spec services.Spec, instance string) error {
	cloud := h.Cloud()
	if cloud == nil {
		return ErrNoCloud
	}
	if _, err := cloud.Instance(instance); err != nil {
		return err
	}
	nodes := h.Nodes()
	if len(nodes) == 0 {
		return errors.New("core: home has no nodes to register through")
	}
	return services.Register(h.kv, nodes[0].id, spec, CloudServiceAddr+instance, "")
}

// UndeployService removes a service from this node and from its
// key-value store registration.
func (n *Node) UndeployService(spec services.Spec) error {
	n.mu.Lock()
	_, had := n.deployed[spec.Key()]
	delete(n.deployed, spec.Key())
	n.mu.Unlock()
	if !had {
		return fmt.Errorf("core: %s not deployed on %s", spec.Name, n.addr)
	}
	return services.Deregister(n.home.kv, n.id, spec, n.addr)
}

// HasService reports whether this node can run the service locally.
func (n *Node) HasService(name string, id uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.deployed[services.Key(name, id)]
	return ok
}

// SetTrainingSet installs the face-recognition training images used by
// the frec kernel when payloads are materialised, replacing any earlier
// set. The images are counted on the first frec after the call, not here.
// They are read-only once installed: the caller must not write to them
// afterwards (installing a changed set is another SetTrainingSet).
func (n *Node) SetTrainingSet(imgs [][]byte) {
	n.training.Store(&trainingSet{imgs: slices.Clone(imgs)})
}

// trainingSet is one installed set of training images. Nothing in it
// changes once installed except the counted form, which the first frec
// against the set builds, at most once and off n.mu; the next
// SetTrainingSet drops the whole set, counted form included.
type trainingSet struct {
	imgs   [][]byte
	once   sync.Once
	scorer *services.TrainingSet // set by once
}

// counted returns the set's images counted for recognition.
func (t *trainingSet) counted() *services.TrainingSet {
	t.once.Do(t.count)
	return t.scorer
}

func (t *trainingSet) count() { t.scorer = services.NewTrainingSet(t.imgs) }

// spawn runs fn as a tracked background operation, registering it with
// the virtual clock when one is in use.
func (n *Node) spawn(fn func()) {
	v, ok := n.clock.(*vclock.Virtual)
	if !ok {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			fn()
		}()
		return
	}
	n.bgMu.Lock()
	n.inflight++
	n.bgMu.Unlock()
	v.Go(func() {
		fn()
		n.bgMu.Lock()
		n.inflight--
		var drained *vclock.Event
		if n.inflight == 0 {
			drained, n.drained = n.drained, nil
		}
		n.bgMu.Unlock()
		if drained != nil {
			drained.Fire()
		}
	})
}

// Flush waits for the node's in-flight non-blocking operations. With
// none in flight it returns without yielding the virtual clock.
func (n *Node) Flush() {
	v, ok := n.clock.(*vclock.Virtual)
	if !ok {
		n.wg.Wait()
		return
	}
	n.bgMu.Lock()
	if n.inflight == 0 {
		n.bgMu.Unlock()
		return
	}
	if n.drained == nil {
		n.drained = v.NewEvent()
	}
	drained := n.drained
	n.bgMu.Unlock()
	drained.Wait()
}

// shutdown departs the overlay. Graceful shutdown first evacuates the
// node's stored objects to peers (or the cloud) and then redistributes
// its metadata keys; a crash loses local payloads and relies on metadata
// replication for the rest.
func (n *Node) shutdown(graceful bool) error {
	n.Flush()
	n.mon.Stop()
	if graceful {
		n.evacuate()
		return n.home.kv.Depart(n.id)
	}
	if err := n.home.mesh.Fail(n.id); err != nil {
		return err
	}
	n.home.kv.Detach(n.id)
	// Metadata repair ran synchronously inside Fail's departure handlers,
	// so payload repairers read post-repair metadata here.
	n.home.payloadRepairAfterCrash(n.addr)
	return nil
}

// lanPathTo builds the transfer path from this node to a peer, taking
// the wireless segment's penalty when either endpoint sits on it. Paths
// are memoised per peer: the inputs (NICs, fabric, wireless flags) are
// immutable config, every message and transfer on the data path needs
// one, and the cache makes the steady state allocation-free.
//
// c4h:hotpath
func (n *Node) lanPathTo(peer *Node) *netsim.Path {
	n.pathMu.Lock()
	if p, ok := n.paths[peer]; ok {
		n.pathMu.Unlock()
		return p
	}
	n.pathMu.Unlock()
	p := netsim.HomePathMixed(n.nic, peer.nic, n.home.fabric,
		n.cfg.Wireless, peer.cfg.Wireless)
	n.pathMu.Lock()
	if n.paths == nil {
		n.paths = make(map[*Node]*netsim.Path)
	}
	n.paths[peer] = p
	n.pathMu.Unlock()
	return p
}

// wanUpPathFor builds the upload path from a node to the cloud.
func wanUpPathFor(n *Node, cloud *cloudsim.Cloud) *netsim.Path {
	return netsim.WANUpPath(n.nic, cloud.UpPipe())
}

// wanDownPathFor builds the download path from the cloud to a node.
func wanDownPathFor(n *Node, cloud *cloudsim.Cloud) *netsim.Path {
	return netsim.WANDownPath(cloud.DownPipe(), n.nic)
}

// resources looks up a candidate's monitored resource record. The kv
// walk and its wire charges are those of monitor.Lookup; the host-side
// work around it is not: the key was hashed once when the candidate
// joined, the record is read zero-copy, and it is decoded through the
// home's memo — the decision layer queries every candidate per
// operation, but a record only changes once per monitor period.
func (n *Node) resources(addr string) (monitor.Resources, error) {
	peer, ok := n.home.Node(addr)
	if !ok {
		// Not (or no longer) a member; replicas may still hold its record.
		return monitor.Lookup(n.home.kv, n.id, addr)
	}
	if n.home.lazyMonitors {
		// On-demand materialisation: the candidate publishes (or memoises,
		// within its validity window) before we read its record.
		if err := peer.mon.EnsureFresh(); err != nil {
			return monitor.Resources{}, fmt.Errorf("monitor: refresh %s: %w", addr, err)
		}
	}
	gr, err := n.home.kv.GetRef(n.id, peer.mon.Key())
	if err != nil {
		return monitor.Resources{}, fmt.Errorf("monitor: lookup %s: %w", addr, err)
	}
	return n.home.decodeResources(peer, gr.Value)
}

// chimeraIPC is the cost of one VStore++ ↔ metadata-layer exchange:
// "VStore++ communicates with Chimera using IPC" (§IV). Together with the
// per-hop wire cost it yields Table I's ≈12–16 ms constant DHT lookup.
const chimeraIPC = 8 * time.Millisecond

// putMeta writes an object's metadata record to the key-value store.
func (n *Node) putMeta(meta ObjectMeta) error {
	data, err := meta.Marshal()
	if err != nil {
		return err
	}
	n.clock.Sleep(chimeraIPC)
	pr, err := n.home.kv.Put(n.id, meta.Key(), data, kv.Overwrite)
	if pr.Hops > 0 {
		n.ops.kvHops.Add(int64(pr.Hops))
	}
	if pr.SuperHops > 0 {
		n.ops.superPeerHops.Add(int64(pr.SuperHops))
	}
	return err
}

// getMeta resolves an object's metadata, measuring the DHT lookup time.
// It reads through kv's zero-copy path: the record is decoded immediately
// and the raw bytes are never retained.
func (n *Node) getMeta(name string) (ObjectMeta, time.Duration, error) {
	start := n.clock.Now()
	n.clock.Sleep(chimeraIPC)
	gr, err := n.home.kv.GetRef(n.id, ids.HashString(name))
	lookup := n.clock.Now().Sub(start)
	if gr.Hops > 0 {
		n.ops.kvHops.Add(int64(gr.Hops))
	}
	if gr.SuperHops > 0 {
		n.ops.superPeerHops.Add(int64(gr.SuperHops))
	}
	if err != nil {
		if errors.Is(err, kv.ErrNotFound) {
			return ObjectMeta{}, lookup, fmt.Errorf("%w: %q", ErrObjectNotFound, name)
		}
		return ObjectMeta{}, lookup, err
	}
	meta, err := UnmarshalObjectMeta(gr.Value.Data)
	return meta, lookup, err
}
