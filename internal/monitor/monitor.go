// Package monitor implements the resource-monitoring mechanism of Fig 2:
// "Nodes periodically update their current resource usage in the
// key-value store using their node ID as key and serialized resource
// information structure as value. The updates are performed through a
// resource monitoring utility module" with a "configurable time period
// (to contain messaging overheads)".
//
// The paper's prototype samples via Linux glibtop; here a Sampler
// abstracts the source — the simulation samples the machine model and the
// object store's bin watcher, and a trivial static sampler serves tests
// and the real-clock daemon.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
	"cloud4home/internal/objstore"
	"cloud4home/internal/vclock"
)

// Resources is the serialized resource information structure published to
// the key-value store.
type Resources struct {
	Addr          string    `json:"addr"`
	CPULoad       float64   `json:"cpuLoad"` // running tasks per core
	Cores         int       `json:"cores"`
	GHz           float64   `json:"ghz"`
	MemTotalMB    int64     `json:"memTotalMb"`
	MemFreeMB     int64     `json:"memFreeMb"`
	MandatoryFree int64     `json:"mandatoryFreeBytes"`
	VoluntaryFree int64     `json:"voluntaryFreeBytes"`
	BandwidthBps  float64   `json:"bandwidthBps"`
	Battery       float64   `json:"battery"`
	UpdatedAt     time.Time `json:"updatedAt"`
}

// Marshal serializes the record for the key-value store.
func (r Resources) Marshal() ([]byte, error) {
	return json.Marshal(r)
}

// UnmarshalResources parses a stored record.
func UnmarshalResources(data []byte) (Resources, error) {
	var r Resources
	if err := json.Unmarshal(data, &r); err != nil {
		return Resources{}, fmt.Errorf("monitor: decode resources: %w", err)
	}
	return r, nil
}

// Key returns the key-value store key for a node's resource record —
// "keys derived based on the nodes' IP address in the home cloud".
func Key(addr string) ids.ID {
	return ids.HashString("resource:" + addr)
}

// Sampler produces the node's current resource usage.
type Sampler interface {
	Sample() Resources
}

// StaticSampler returns a fixed record (tests, simple daemons).
type StaticSampler struct {
	R Resources
}

var _ Sampler = StaticSampler{}

// Sample implements Sampler.
func (s StaticSampler) Sample() Resources { return s.R }

// MachineSampler samples a simulated machine, its object store's bin
// watcher, and a bandwidth probe.
type MachineSampler struct {
	Addr    string
	Machine *machine.Machine
	Store   *objstore.Store
	// Bandwidth reports the node's currently available network bandwidth
	// in bytes/sec (nil means unknown → 0).
	Bandwidth func() float64
	Clock     vclock.Clock
}

var _ Sampler = (*MachineSampler)(nil)

// Sample implements Sampler.
func (s *MachineSampler) Sample() Resources {
	spec := s.Machine.Spec()
	r := Resources{
		Addr:       s.Addr,
		CPULoad:    s.Machine.Load(),
		Cores:      spec.Cores,
		GHz:        spec.GHz,
		MemTotalMB: spec.MemMB,
		MemFreeMB:  s.Machine.MemFreeMB(),
		Battery:    spec.Battery,
	}
	if s.Store != nil {
		if u, err := s.Store.Usage(objstore.Mandatory); err == nil {
			r.MandatoryFree = u.Free()
		}
		if u, err := s.Store.Usage(objstore.Voluntary); err == nil {
			r.VoluntaryFree = u.Free()
		}
	}
	if s.Bandwidth != nil {
		r.BandwidthBps = s.Bandwidth()
	}
	if s.Clock != nil {
		r.UpdatedAt = s.Clock.Now()
	}
	return r
}

// Monitor periodically publishes a node's resource record.
type Monitor struct {
	store   *kv.Store
	clock   vclock.Clock
	node    ids.ID
	key     ids.ID // Key(addr), hashed once
	addr    string
	sampler Sampler
	period  time.Duration

	mu      sync.Mutex
	started bool
	lazy    bool      // guarded by mu; on-demand mode, Start is a no-op
	lastPub time.Time // guarded by mu; when the record was last published
	hasPub  bool      // guarded by mu; whether any publish has happened
	stop    chan struct{}
	done    chan struct{} // real clock: closed when the loop has exited
	exited  *vclock.Event // virtual clock: fired when the loop has exited
	lastErr error         // guarded by mu; most recent periodic-publish failure
}

// New returns a monitor for the node identified by addr (already joined
// and attached). period is the configurable update interval.
func New(store *kv.Store, clock vclock.Clock, addr string, sampler Sampler, period time.Duration) (*Monitor, error) {
	if period <= 0 {
		return nil, errors.New("monitor: period must be positive")
	}
	if sampler == nil {
		return nil, errors.New("monitor: sampler required")
	}
	return &Monitor{
		store:   store,
		clock:   clock,
		node:    ids.HashString(addr),
		key:     Key(addr),
		addr:    addr,
		sampler: sampler,
		period:  period,
	}, nil
}

// Key returns the key-value store key the monitor publishes under:
// Key(addr), computed once at construction so readers that hold the
// monitor need not re-hash the address per lookup.
func (m *Monitor) Key() ids.ID { return m.key }

// PublishOnce samples and writes the record immediately. Simulations call
// this from their own (registered) workers.
func (m *Monitor) PublishOnce() error {
	r := m.sampler.Sample()
	if r.Addr == "" {
		r.Addr = m.addr
	}
	if r.UpdatedAt.IsZero() {
		r.UpdatedAt = m.clock.Now()
	}
	data, err := r.Marshal()
	if err != nil {
		return err
	}
	if _, err = m.store.Put(m.node, m.key, data, kv.Overwrite); err != nil {
		return err
	}
	m.mu.Lock()
	m.lastPub = m.clock.Now()
	m.hasPub = true
	m.mu.Unlock()
	return nil
}

// SetLazy switches the monitor to on-demand publication: Start becomes a
// no-op and readers call EnsureFresh before consulting the record. City-
// scale runs use it so N nodes do not each keep a periodic publisher
// sleeping on the clock for records nobody reads.
func (m *Monitor) SetLazy(on bool) {
	m.mu.Lock()
	m.lazy = on
	m.mu.Unlock()
}

// EnsureFresh materialises the resource record on demand: in lazy mode
// it publishes if the record has never been published or its validity
// window (one monitor period) has lapsed, and is a memoised no-op in
// between. Outside lazy mode it does nothing — the periodic loop owns
// freshness.
func (m *Monitor) EnsureFresh() error {
	m.mu.Lock()
	lazy, hasPub, lastPub := m.lazy, m.hasPub, m.lastPub
	m.mu.Unlock()
	if !lazy {
		return nil
	}
	if hasPub && m.clock.Now().Sub(lastPub) < m.period {
		return nil
	}
	return m.PublishOnce()
}

// Start launches the periodic publisher. On a virtual clock the loop is
// registered as a clock worker so time only advances when it is asleep.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.lazy {
		return
	}
	m.started = true
	stop := make(chan struct{})
	m.stop = stop
	loop := func() {
		for {
			m.clock.Sleep(m.period)
			select {
			case <-stop:
				return
			default:
			}
			// Publication failures (e.g. during churn) degrade gracefully:
			// the next period retries with fresh membership. The latest
			// failure stays observable via LastPublishErr.
			if err := m.PublishOnce(); err != nil {
				m.mu.Lock()
				m.lastErr = err
				m.mu.Unlock()
			}
		}
	}
	if v, ok := m.clock.(*vclock.Virtual); ok {
		// The loop fires exited while it is still a registered worker, so
		// a stopper parked on it is re-queued by the clock in (deadline,
		// seq) order; a channel inside Virtual.Block would let the
		// stopper's re-registration race the loop's deregistration.
		exited := v.NewEvent()
		m.exited = exited
		v.Go(func() {
			loop()
			exited.Fire()
		})
	} else {
		done := make(chan struct{})
		m.done = done
		go func() {
			defer close(done)
			loop()
		}()
	}
}

// Stop halts the publisher and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	stop, done, exited := m.stop, m.done, m.exited
	m.started = false
	m.mu.Unlock()
	close(stop)
	// The loop only observes stop after its next tick; on a virtual clock
	// the stopper parks and time advances to that tick.
	if exited != nil {
		exited.Wait()
	} else {
		<-done
	}
}

// LastPublishErr returns the most recent periodic-publish failure, or
// nil if every period so far succeeded. Churn tests use it to confirm
// the publisher degraded (and recovered) rather than silently stalling.
func (m *Monitor) LastPublishErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// Lookup fetches the freshest resource record for the node at addr, as
// seen from the requesting node — the per-candidate query inside
// chimeraGetDecision() (Fig 2).
func Lookup(store *kv.Store, from ids.ID, addr string) (Resources, error) {
	gr, err := store.Get(from, Key(addr))
	if err != nil {
		return Resources{}, fmt.Errorf("monitor: lookup %s: %w", addr, err)
	}
	return UnmarshalResources(gr.Value.Data)
}
