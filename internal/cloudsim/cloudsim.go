// Package cloudsim simulates the remote public cloud of the paper's
// evaluation: an S3-like blocking object store and EC2-like compute
// instances, reachable only over the wide-area path modelled by netsim
// (GT wireless → shared Internet → Amazon). The paper's prototype wraps
// the real S3 API ("a wrapper over the Amazon S3 interface which is a
// blocking call that uses a TCP/IP-based data transfer mechanism", §IV);
// here the same call shape is preserved while the transport is the
// simulated WAN, so remote accesses exhibit the high, variable latency
// and the slow-start/shaping throughput profile of Figs 4 and 5.
//
// Beyond the paper's single S3 clone, the package federates: any number
// of heterogeneous storage backends can be built from BackendProfiles
// (per-backend WAN pipes, latency/bandwidth shape, pricing, durability)
// and attached to a home side by side. The default Cloud is simply the
// Remote built from S3Profile plus the EC2-like compute tier.
package cloudsim

import (
	"errors"
	"fmt"
	"time"

	"cloud4home/internal/machine"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/vclock"
)

// Errors returned by cloud operations.
var (
	ErrNoInstance = errors.New("cloudsim: unknown instance")
	// ErrOverQuota is returned when a store would exceed the backend's
	// capacity. The provider rejects at request time, so only one round
	// trip is charged — never the payload transfer.
	ErrOverQuota = errors.New("cloudsim: backend capacity exceeded")
)

// Bucket is the default backend's S3 bucket name used in object URLs.
const Bucket = "vstore"

// URL returns the S3-style URL stored as the object's location value in
// the key-value store ("URL location of object in users S3 storage
// bucket is stored as value", §III-C) for the default bucket.
func URL(name string) string {
	return fmt.Sprintf("s3://%s/%s", Bucket, name)
}

// BackendProfile describes one remote storage backend: its WAN shape
// (each backend gets its own contended pipes built at these rates), its
// per-request cost model, and its advertised durability. The S3Profile
// values reproduce the paper's calibrated testbed exactly.
type BackendProfile struct {
	// Name identifies the backend; metadata records it per object so
	// fetches route back to the right provider. Must be unique per home.
	Name string
	// Bucket names the backend's bucket in object URLs
	// ("s3://<bucket>/<name>"). Must be unique per home.
	Bucket string

	// DownBps/UpBps are the steady-state pipe rates once the TCP window
	// has opened; RTT, Setup, and Jitter shape each request like the
	// netsim WAN paths.
	DownBps, UpBps float64
	RTT, Setup     time.Duration
	Jitter         float64
	// InitWindow/MaxWindow model the provider-side TCP window ramp; a
	// zero MaxWindow disables slow start.
	InitWindow, MaxWindow int64
	// ShapingAfter/ShapingFactor model ISP policing of long transfers; a
	// zero ShapingAfter disables shaping.
	ShapingAfter  time.Duration
	ShapingFactor float64

	// CapacityBytes bounds the bucket (0 = effectively unbounded).
	CapacityBytes int64

	// Pricing, in USD: storage per GB-month, ingress per GB, egress per
	// GB, and a flat per-API-request fee. Spend() folds them into a
	// monthly bill at the snapshot occupancy.
	StorePerGBMonth, PutPerGB, GetPerGB, PerRequest float64

	// Durability is the advertised annual object-survival probability
	// (e.g. S3's eleven nines). Policies trade it against price/latency.
	Durability float64
}

// Backend is one remote storage provider a home can federate with. The
// default *Cloud implements it, as does every profile-built *Remote.
type Backend interface {
	Name() string
	Profile() BackendProfile
	URL(name string) string
	StoreObject(srcNIC *netsim.Resource, meta objstore.Object, data []byte) (string, time.Duration, error)
	FetchObject(dstNIC *netsim.Resource, name string) (objstore.Object, []byte, time.Duration, error)
	Stat(dstNIC *netsim.Resource, name string) (objstore.Object, error)
	Has(name string) bool
	Delete(name string) error
	UpPipe() *netsim.Resource
	DownPipe() *netsim.Resource
	Seed(meta objstore.Object, data []byte) error
	EstimateStore(srcNIC *netsim.Resource, size int64) time.Duration
	EstimateFetch(dstNIC *netsim.Resource, size int64) time.Duration
	Spend() Spend
}

// Spend is a backend's traffic and billing snapshot.
type Spend struct {
	// BytesStored is the bucket's current occupancy; BytesUp/BytesDown
	// are cumulative ingress/egress; Requests counts API calls
	// (store/fetch/stat/delete), including rejected ones.
	BytesStored int64
	BytesUp     int64
	BytesDown   int64
	Requests    int64
	// USD is one month's bill at this snapshot: storage at the current
	// occupancy plus the cumulative transfer and request fees.
	USD float64
}

// Remote is one profile-driven storage backend: an object bucket behind
// its own pair of WAN pipes, with a running bill. All blocking behaviour
// matches the paper's S3 wrapper.
type Remote struct {
	prof  BackendProfile
	clock vclock.Clock
	net   *netsim.Network

	// down and up are this backend's WAN pipes (cloud→home and
	// home→cloud); federated backends do not contend with each other.
	down, up *netsim.Resource

	store *objstore.Store

	// The bill has no lock: the clock's turn is its one owner, and only
	// the actor holding the turn calls a Remote.
	bytesUp, bytesDown, requests int64
}

var _ Backend = (*Remote)(nil)

// NewRemote builds a storage backend from a profile, with fresh WAN
// pipes at the profile's rates.
func NewRemote(clock vclock.Clock, net *netsim.Network, prof BackendProfile) *Remote {
	const unbounded = int64(1) << 50 // S3: effectively infinite storage
	capacity := prof.CapacityBytes
	if capacity <= 0 {
		capacity = unbounded
	}
	return &Remote{
		prof:  prof,
		clock: clock,
		net:   net,
		down:  netsim.NewResource(prof.DownBps),
		up:    netsim.NewResource(prof.UpBps),
		store: objstore.NewMem(capacity, 0),
	}
}

// Name returns the backend's profile name.
func (r *Remote) Name() string { return r.prof.Name }

// Profile returns the backend's profile.
func (r *Remote) Profile() BackendProfile { return r.prof }

// URL returns the backend's S3-style URL for an object.
func (r *Remote) URL(name string) string {
	return fmt.Sprintf("s3://%s/%s", r.prof.Bucket, name)
}

// DownPipe returns the backend's download pipe (for monitoring or
// degradation).
func (r *Remote) DownPipe() *netsim.Resource { return r.down }

// UpPipe returns the backend's upload pipe.
func (r *Remote) UpPipe() *netsim.Resource { return r.up }

// downPath builds the fetch path (backend → home node) from the
// profile. For S3Profile it is exactly netsim.WANDownPath.
func (r *Remote) downPath(dst *netsim.Resource) *netsim.Path {
	p := &netsim.Path{
		Resources: []*netsim.Resource{r.down, dst},
		RTT:       r.prof.RTT,
		Setup:     r.prof.Setup,
		Jitter:    r.prof.Jitter,
	}
	if r.prof.MaxWindow > 0 {
		p.SlowStart = &netsim.SlowStart{InitWindow: r.prof.InitWindow, MaxWindow: r.prof.MaxWindow}
	}
	if r.prof.ShapingAfter > 0 {
		p.Shaping = &netsim.Shaping{After: r.prof.ShapingAfter, RateFactor: r.prof.ShapingFactor}
	}
	return p
}

// upPath builds the store path (home node → backend).
func (r *Remote) upPath(src *netsim.Resource) *netsim.Path {
	p := &netsim.Path{
		Resources: []*netsim.Resource{src, r.up},
		RTT:       r.prof.RTT,
		Setup:     r.prof.Setup,
		Jitter:    r.prof.Jitter,
	}
	if r.prof.MaxWindow > 0 {
		p.SlowStart = &netsim.SlowStart{InitWindow: r.prof.InitWindow, MaxWindow: r.prof.MaxWindow}
	}
	if r.prof.ShapingAfter > 0 {
		p.Shaping = &netsim.Shaping{After: r.prof.ShapingAfter, RateFactor: r.prof.ShapingFactor}
	}
	return p
}

// StoreObject uploads an object from a home node (identified by its NIC
// resource) into the bucket. It blocks for the full upload, like the S3
// wrapper, and returns the object's URL and the elapsed transfer time.
//
// Failure-cost contract (the PR-5 Retries convention): an upload the
// provider rejects up front — over quota — costs one request
// round trip, never the payload transfer; overwrites replace the old
// object atomically (a failed replace leaves it readable); and only a
// mid-flight race can burn a full transfer, whose duration is still
// returned with the error so callers can charge it as retry cost.
func (r *Remote) StoreObject(srcNIC *netsim.Resource, meta objstore.Object, data []byte) (string, time.Duration, error) {
	if data != nil {
		meta.Size = int64(len(data))
	}
	r.requests++
	if !r.fits(meta) {
		// The provider rejects at the request handshake: the object's
		// bytes never cross the wire, so a full home cloud cannot be
		// billed (in time or USD) for transfers that were doomed.
		d := r.net.Message(r.upPath(srcNIC))
		return "", d, fmt.Errorf("cloudsim: store %q: %w", meta.Name, ErrOverQuota)
	}
	d := r.net.Transfer(r.upPath(srcNIC), meta.Size)
	r.bytesUp += meta.Size
	err := r.store.Put(objstore.Mandatory, meta, data)
	if errors.Is(err, objstore.ErrExists) {
		// Overwrite semantics: S3 puts replace existing keys, atomically —
		// the old object survives a failed replace.
		err = r.store.Replace(meta, data)
	}
	if err != nil {
		return "", d, fmt.Errorf("cloudsim: store %q: %w", meta.Name, err)
	}
	return r.URL(meta.Name), d, nil
}

// fits reports whether the bucket can hold meta, counting the space an
// overwritten incumbent of the same name releases.
func (r *Remote) fits(meta objstore.Object) bool {
	u, err := r.store.Usage(objstore.Mandatory)
	if err != nil {
		return false
	}
	var incumbent int64
	if m, _, err := r.store.Stat(meta.Name); err == nil {
		incumbent = m.Size
	}
	return u.Free()+incumbent >= meta.Size
}

// FetchObject downloads an object to a home node, blocking for the full
// transfer, and returns its metadata, payload (nil for sparse objects),
// and the elapsed transfer time. The payload is a read-only borrow of the
// bucket's bytes (objstore.Store.GetRef): the caller must not write to it,
// and copies it where it leaves for code outside VStore++.
func (r *Remote) FetchObject(dstNIC *netsim.Resource, name string) (objstore.Object, []byte, time.Duration, error) {
	r.requests++
	meta, data, err := r.store.GetRef(name)
	if err != nil {
		return objstore.Object{}, nil, 0, fmt.Errorf("cloudsim: fetch %q: %w", name, err)
	}
	d := r.net.Transfer(r.downPath(dstNIC), meta.Size)
	r.bytesDown += meta.Size
	return meta, data, d, nil
}

// Has reports whether the bucket holds the object. This is a simulator
// oracle (no wire cost) for tests and seeding checks; the data path must
// probe with Stat, which charges the HEAD round trip.
func (r *Remote) Has(name string) bool { return r.store.Has(name) }

// Delete removes an object from the bucket.
func (r *Remote) Delete(name string) error {
	r.requests++
	return r.store.Delete(name)
}

// Stat returns an object's metadata without transferring it (a metadata
// HEAD request: one WAN round trip, charged whether or not the object
// exists).
func (r *Remote) Stat(dstNIC *netsim.Resource, name string) (objstore.Object, error) {
	r.requests++
	r.net.Message(r.downPath(dstNIC))
	meta, _, err := r.store.Stat(name)
	if err != nil {
		return objstore.Object{}, fmt.Errorf("cloudsim: stat %q: %w", name, err)
	}
	return meta, nil
}

// Seed places an object directly into the bucket with no transfer cost —
// for "public databases of image training sets" and other state that
// exists only in the cloud (§II).
func (r *Remote) Seed(meta objstore.Object, data []byte) error {
	return r.store.Put(objstore.Mandatory, meta, data)
}

// EstimateStore predicts an upload's duration from the profile shape
// (deterministic: no clock advance, no RNG draw) — the latency input to
// federation placement policies.
func (r *Remote) EstimateStore(srcNIC *netsim.Resource, size int64) time.Duration {
	return netsim.EstimateTransfer(r.upPath(srcNIC), size)
}

// EstimateFetch predicts a download's duration from the profile shape.
func (r *Remote) EstimateFetch(dstNIC *netsim.Resource, size int64) time.Duration {
	return netsim.EstimateTransfer(r.downPath(dstNIC), size)
}

// Spend returns the backend's traffic counters and one month's bill at
// the current occupancy.
func (r *Remote) Spend() Spend {
	s := Spend{
		BytesUp:   r.bytesUp,
		BytesDown: r.bytesDown,
		Requests:  r.requests,
	}
	if u, err := r.store.Usage(objstore.Mandatory); err == nil {
		s.BytesStored = u.Used
	}
	const gb = float64(1 << 30)
	s.USD = float64(s.BytesStored)/gb*r.prof.StorePerGBMonth +
		float64(s.BytesUp)/gb*r.prof.PutPerGB +
		float64(s.BytesDown)/gb*r.prof.GetPerGB +
		float64(s.Requests)*r.prof.PerRequest
	return s
}

// Cloud is the default remote public cloud: the S3Profile storage
// backend plus EC2-like compute instances.
type Cloud struct {
	*Remote

	instances map[string]*machine.Machine
}

var _ Backend = (*Cloud)(nil)

// New returns a cloud reachable through WAN pipes with the calibrated
// testbed rates.
func New(clock vclock.Clock, net *netsim.Network) *Cloud {
	return &Cloud{
		Remote:    NewRemote(clock, net, S3Profile()),
		instances: make(map[string]*machine.Machine),
	}
}

// LaunchInstance provisions an EC2-like instance. The paper's S3 host for
// Fig 7 is an "extra large EC2 para-virtualized instance with five
// 2.9 GHZ CPUs with 14 GB memory".
func (c *Cloud) LaunchInstance(name string, spec machine.Spec) (*machine.Machine, error) {
	m, err := machine.New(spec, c.clock)
	if err != nil {
		return nil, err
	}
	if _, dup := c.instances[name]; dup {
		return nil, fmt.Errorf("cloudsim: instance %q already running", name)
	}
	c.instances[name] = m
	return m, nil
}

// ExtraLargeSpec is the paper's EC2 instance type for service execution.
func ExtraLargeSpec(name string) machine.Spec {
	return machine.Spec{Name: name, Cores: 5, GHz: 2.9, MemMB: 14 << 10, Battery: 1}
}

// Instance returns a running instance's machine.
func (c *Cloud) Instance(name string) (*machine.Machine, error) {
	m, ok := c.instances[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoInstance, name)
	}
	return m, nil
}

// TerminateInstance stops an instance.
func (c *Cloud) TerminateInstance(name string) error {
	if _, ok := c.instances[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoInstance, name)
	}
	delete(c.instances, name)
	return nil
}
