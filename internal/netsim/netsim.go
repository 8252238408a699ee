// Package netsim models the networks of the paper's testbed: the 95.5 Mbps
// home Ethernet LAN, per-device NIC/disk capacity, and the Georgia Tech
// wireless uplink to Amazon (≈6.5 Mbps down / 4.5 Mbps up max, ≈1.5 Mbps
// average, highly variable).
//
// A transfer follows a Path through one or more shared Resources
// (endpoint NIC, LAN fabric, WAN pipe). Each resource is a
// processor-sharing server: concurrent transfers split its capacity. On
// top of the raw pipes the package models the transport effects the
// evaluation depends on:
//
//   - TCP slow start: short transfers spend most of their life ramping the
//     congestion window, so throughput grows with object size (Fig 5, left
//     side of the peak);
//   - the provider's TCP window cap (≈1.6 MB for S3), which bounds the
//     full rate at MaxWindow/RTT;
//   - ISP traffic shaping: "long bandwidth-hogging data transfers" get
//     rate-limited, so beyond a certain size aggregate throughput
//     deteriorates (Fig 5, right side of the peak);
//   - latency jitter, much larger on the WAN than in the home (Fig 4's
//     error bars).
//
// All waiting is charged to a vclock.Clock, so the same code runs in
// deterministic virtual time for experiments and real time in daemons.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cloud4home/internal/detrand"
	"cloud4home/internal/vclock"
)

// Resource is a processor-sharing capacity (a NIC, a LAN segment, a WAN
// pipe). Concurrent transfers crossing it divide CapacityBps equally.
type Resource struct {
	name string

	mu       sync.Mutex
	capacity float64 // bytes/sec currently available
	nominal  float64 // bytes/sec as configured
	active   int
}

// NewResource returns a resource with the given nominal capacity in
// bytes per second.
func NewResource(name string, capacityBps float64) *Resource {
	return &Resource{name: name, capacity: capacityBps, nominal: capacityBps}
}

// Name returns the resource's label (used in diagnostics).
func (r *Resource) Name() string { return r.name }

// Active returns the number of transfers currently crossing the resource.
func (r *Resource) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active
}

// Capacity returns the current capacity in bytes/sec.
func (r *Resource) Capacity() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.capacity
}

// Degrade scales the resource's capacity to factor × nominal. It models
// the "changing network conditions" of the paper's future work (§VII iv):
// monitoring picks the change up and routing decisions adapt.
func (r *Resource) Degrade(factor float64) {
	if factor < 0 {
		factor = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.capacity = r.nominal * factor
}

// Restore returns the resource to its nominal capacity.
func (r *Resource) Restore() { r.Degrade(1) }

func (r *Resource) acquire() {
	r.mu.Lock()
	r.active++
	r.mu.Unlock()
}

func (r *Resource) release() {
	r.mu.Lock()
	r.active--
	r.mu.Unlock()
}

// share returns the bytes/sec available to one of the transfers currently
// crossing the resource.
func (r *Resource) share() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active <= 1 {
		return r.capacity
	}
	return r.capacity / float64(r.active)
}

// SlowStart configures the TCP ramp-up model for a path.
type SlowStart struct {
	// InitWindow is the initial congestion window in bytes.
	InitWindow int64
	// MaxWindow is the provider-side cap ("approximately 1.6 MB in the
	// case of S3", §V-A). The steady-state rate is MaxWindow/RTT, further
	// capped by the path's resources.
	MaxWindow int64
}

// Shaping configures ISP traffic shaping: once a transfer has been moving
// data for longer than After, its rate is multiplied by RateFactor.
type Shaping struct {
	After      time.Duration
	RateFactor float64
}

// Path describes one directional route through the network.
type Path struct {
	// Resources the transfer crosses; each contributes processor-shared
	// capacity.
	Resources []*Resource
	// RTT is the round-trip latency (before jitter).
	RTT time.Duration
	// Setup is fixed per-transfer overhead (connection establishment,
	// request dispatch, cloud API framing).
	Setup time.Duration
	// Jitter is the fractional standard deviation applied to latency and
	// per-chunk rates.
	Jitter float64
	// SlowStart, if non-nil, enables the TCP ramp model.
	SlowStart *SlowStart
	// Shaping, if non-nil, enables ISP traffic shaping.
	Shaping *Shaping
}

// Validate reports configuration errors early.
func (p *Path) Validate() error {
	if len(p.Resources) == 0 {
		return fmt.Errorf("netsim: path has no resources")
	}
	for _, r := range p.Resources {
		if r == nil {
			return fmt.Errorf("netsim: path has nil resource")
		}
	}
	if p.SlowStart != nil && (p.SlowStart.InitWindow <= 0 || p.SlowStart.MaxWindow < p.SlowStart.InitWindow) {
		return fmt.Errorf("netsim: invalid slow start window config")
	}
	if p.Shaping != nil && (p.Shaping.RateFactor <= 0 || p.Shaping.RateFactor > 1) {
		return fmt.Errorf("netsim: shaping rate factor must be in (0, 1]")
	}
	return nil
}

// Network issues transfers and latency-bound messages over paths. It owns
// the randomness (deterministically seeded) used for jitter.
type Network struct {
	clock vclock.Clock
	seed  int64
	ctr   atomic.Uint64

	// Traffic accounting: constant-cost atomic bumps on the charge paths,
	// read only at experiment quiesce points, so they never perturb the
	// deterministic schedule.
	msgCount  atomic.Int64
	xferCount atomic.Int64
	xferBytes atomic.Int64
}

// New returns a network charging time to clock. All jitter derives from
// seed, so two networks built with the same seed and driven by the same
// virtual clock behave identically.
func New(clock vclock.Clock, seed int64) *Network {
	return &Network{clock: clock, seed: seed}
}

// Clock returns the clock the network charges time to.
func (n *Network) Clock() vclock.Clock { return n.clock }

// Traffic returns the cumulative control messages, payload transfers, and
// payload bytes charged so far. City-scale experiments diff it around a
// churn window to measure repair traffic.
func (n *Network) Traffic() (messages, transfers, bytes int64) {
	return n.msgCount.Load(), n.xferCount.Load(), n.xferBytes.Load()
}

// rng returns a pooled deterministic source for one operation. Each
// operation gets its own stream so concurrent goroutines cannot perturb
// each other's randomness; detrand materialises only the state words the
// operation draws, so the stream costs neither a reseed nor an
// allocation. Pair with putRNG when the operation's draws are done.
//
// c4h:hotpath
func (n *Network) rng() *detrand.Rand {
	k := n.ctr.Add(1)
	return detrand.Get(n.seed*1_000_003 + int64(k))
}

// putRNG recycles an operation's generator.
//
// c4h:hotpath
func putRNG(r *detrand.Rand) { detrand.Put(r) }

// jitter returns a multiplicative noise factor ≥ 0.1 with mean 1 and
// standard deviation j.
func jitter(rng *rand.Rand, j float64) float64 {
	if j <= 0 {
		return 1
	}
	f := 1 + rng.NormFloat64()*j
	return math.Max(f, 0.1)
}

// Message charges one-way delivery latency for a small control message
// (command packets are "usually less than 50 bytes", §IV) and returns the
// elapsed duration.
// c4h:hotpath
func (n *Network) Message(p *Path) time.Duration {
	n.msgCount.Add(1)
	rng := n.rng()
	d := time.Duration(float64(p.RTT/2) * jitter(rng.Rand, p.Jitter))
	putRNG(rng)
	n.clock.Sleep(d)
	return d
}

// chunkFor bounds the per-chunk bytes so that processor sharing reacts to
// arrivals/departures of concurrent transfers at a reasonable granularity
// without making huge transfers take thousands of scheduler events.
func chunkFor(size int64) int64 {
	const (
		minChunk = 64 << 10
		maxChunk = 2 << 20
	)
	c := size / 48
	if c < minChunk {
		c = minChunk
	}
	if c > maxChunk {
		c = maxChunk
	}
	return c
}

// Transfer moves size bytes over the path, charging virtual/real time for
// setup, latency, TCP ramp, processor-shared bandwidth, and shaping. It
// returns the total elapsed duration.
//
// c4h:hotpath
func (n *Network) Transfer(p *Path, size int64) time.Duration {
	if size <= 0 {
		return n.Message(p)
	}
	n.xferCount.Add(1)
	n.xferBytes.Add(size)
	prng := n.rng()
	rng := prng.Rand
	for _, r := range p.Resources {
		r.acquire()
	}
	defer func() {
		putRNG(prng)
		for _, r := range p.Resources {
			r.release()
		}
	}()

	var elapsed time.Duration
	sleep := func(d time.Duration) {
		if d <= 0 {
			return
		}
		n.clock.Sleep(d)
		elapsed += d
	}

	// Connection setup + first-byte latency.
	sleep(p.Setup + time.Duration(float64(p.RTT/2)*jitter(rng, p.Jitter)))

	remaining := size
	var dataTime time.Duration // time spent moving payload (for shaping)

	rateCap := func() float64 {
		rate := math.MaxFloat64
		for _, r := range p.Resources {
			if s := r.share(); s < rate {
				rate = s
			}
		}
		if rate <= 0 {
			rate = 1 // fully degraded link: crawl rather than divide by zero
		}
		if p.Shaping != nil && dataTime > p.Shaping.After {
			rate *= p.Shaping.RateFactor
		}
		return rate
	}

	// TCP slow start: one window per RTT, doubling until the provider cap.
	if ss := p.SlowStart != nil; ss {
		w := p.SlowStart.InitWindow
		for remaining > 0 && w < p.SlowStart.MaxWindow {
			send := w
			if send > remaining {
				send = remaining
			}
			// A slow-start round takes max(RTT, send/rate): latency bound
			// while the window is small, bandwidth bound once it is not.
			rt := time.Duration(float64(p.RTT) * jitter(rng, p.Jitter))
			bw := time.Duration(float64(send) / rateCap() * float64(time.Second))
			d := rt
			if bw > d {
				d = bw
			}
			sleep(d)
			dataTime += d
			remaining -= send
			w *= 2
		}
	}

	// Bulk phase at the (shared, possibly shaped) path rate.
	chunk := chunkFor(size)
	for remaining > 0 {
		send := chunk
		if send > remaining {
			send = remaining
		}
		rate := rateCap()
		d := time.Duration(float64(send) / rate * float64(time.Second) * jitter(rng, p.Jitter))
		sleep(d)
		dataTime += d
		remaining -= send
	}
	return elapsed
}

// EstimateTransfer predicts the duration of a transfer without performing
// it and without contention effects. The decision layer (§III-B) uses it
// to "approximate the data movement costs" when choosing a processing
// target.
func EstimateTransfer(p *Path, size int64) time.Duration {
	if size <= 0 {
		return p.RTT / 2
	}
	rate := math.MaxFloat64
	for _, r := range p.Resources {
		if c := r.Capacity(); c < rate {
			rate = c
		}
	}
	if rate <= 0 {
		rate = 1
	}
	est := p.Setup + p.RTT/2
	remaining := size
	if p.SlowStart != nil {
		w := p.SlowStart.InitWindow
		for remaining > 0 && w < p.SlowStart.MaxWindow {
			send := w
			if send > remaining {
				send = remaining
			}
			d := p.RTT
			if bw := time.Duration(float64(send) / rate * float64(time.Second)); bw > d {
				d = bw
			}
			est += d
			remaining -= send
			w *= 2
		}
	}
	est += time.Duration(float64(remaining) / rate * float64(time.Second))
	return est
}
