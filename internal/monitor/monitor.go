// Package monitor implements the resource-monitoring mechanism of Fig 2:
// "Nodes periodically update their current resource usage in the
// key-value store using their node ID as key and serialized resource
// information structure as value. The updates are performed through a
// resource monitoring utility module" with a "configurable time period
// (to contain messaging overheads)".
//
// The paper's prototype samples via Linux glibtop; here a Sampler
// abstracts the source — the simulation samples the machine model and the
// object store's bin watcher, and a trivial static sampler serves tests.
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
	clock   *vclock.Virtual
	node    ids.ID
	key     ids.ID // Key(addr), hashed once
	addr    string
	sampler Sampler
	period  time.Duration

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	loop    *vclock.Group // the running publisher, joined by Stop
	lastErr error         // guarded by mu; most recent periodic-publish failure
}

// New returns a monitor for the node identified by addr (already joined
// and attached). period is the configurable update interval.
func New(store *kv.Store, clock *vclock.Virtual, addr string, sampler Sampler, period time.Duration) (*Monitor, error) {
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
		loop:    vclock.NewGroup(clock),
	}, nil
}

// Key returns the key-value store key the monitor publishes under:
// Key(addr), computed once at construction so readers that hold the
// monitor need not re-hash the address per lookup.
func (m *Monitor) Key() ids.ID { return m.key }

// PublishOnce samples and writes the record immediately. Simulations call
// this from their own actors.
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
	_, err = m.store.Put(m.node, m.key, data, kv.Overwrite)
	return err
}

// Start launches the periodic publisher, an actor on the clock.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	stop := make(chan struct{})
	m.stop = stop
	m.mu.Unlock()
	m.loop.Go(func() {
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
	})
}

// Stop halts the publisher and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	stop := m.stop
	m.started = false
	m.mu.Unlock()
	close(stop)
	// The loop only observes stop after its next tick; the stopper parks
	// and time advances to that tick.
	m.loop.Wait()
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
