// Package cluster assembles the paper's experimental testbed (§V): "5
// dual-core 1.66 GHz Intel Atom N280 netbooks and a 2.3 GHZ 32 bit Intel
// Quad core desktop machine, running Linux 2.6.28 on Xen", a 95.5 Mbps
// home Ethernet LAN, and wireless connectivity to Amazon EC2/S3 with
// ≈6.5 Mbps down / 4.5 Mbps up. Experiments and examples build on these
// presets so every run uses the same calibrated machines.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/core"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
	"cloud4home/internal/vclock"
)

// Epoch is the fixed virtual-time origin for all experiments.
var Epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

// GB is one gibibyte.
const GB = int64(1) << 30

// NetbookSpec is the VM hosted on an Atom N280 netbook (one vCPU as in
// the paper's S1-style guests).
func NetbookSpec(name string) machine.Spec {
	return machine.Spec{Name: name, Cores: 1, GHz: 1.66, MemMB: 512, Battery: 1}
}

// DesktopSpec is the quad-core desktop's VM.
func DesktopSpec() machine.Spec {
	return machine.Spec{Name: "desktop", Cores: 4, GHz: 2.3, MemMB: 2048, Battery: 1}
}

// Fig 7's three service hosts.

// S1Spec is the "512 MB VM with one VCPU on a 1.3 GHZ dual-core Atom".
func S1Spec() machine.Spec {
	return machine.Spec{Name: "S1", Cores: 1, GHz: 1.3, MemMB: 512, Battery: 1}
}

// S2Spec is the "128 MB multi-VCPU VM on a 1.8 GHz quad-core processor".
func S2Spec() machine.Spec {
	return machine.Spec{Name: "S2", Cores: 4, GHz: 1.8, MemMB: 128, Battery: 1}
}

// S3Spec is the "extra large EC2 para-virtualized instance with five
// 2.9 GHZ CPUs with 14 GB memory".
func S3Spec() machine.Spec {
	return cloudsim.ExtraLargeSpec("S3")
}

// Testbed is the assembled home cloud plus remote cloud.
type Testbed struct {
	V        *vclock.Virtual
	Home     *core.Home
	Cloud    *cloudsim.Cloud
	Netbooks []*core.Node
	Desktop  *core.Node
}

// Options configures testbed construction.
type Options struct {
	// Seed drives all simulated randomness.
	Seed int64
	// KV configures the metadata store; the paper's prototype caches and
	// replicates, so both default on with factor 1 unless set.
	KV *kv.Options
	// Netbooks overrides the netbook count (default 5).
	Netbooks int
	// Config is the home's modeled behaviour (core.HomeOptions.Config);
	// the zero value is the paper's.
	Config core.Config
	// Backends attaches extra federated storage backends (beyond the
	// default S3 clone) built from these profiles, in order.
	Backends []cloudsim.BackendProfile
}

// New builds the paper testbed. All construction runs inside the virtual
// clock so join/monitoring costs are properly charged.
func New(opts Options) (*Testbed, error) {
	if opts.Netbooks == 0 {
		opts.Netbooks = 5
	}
	kvOpts := kv.Options{ReplicationFactor: 1, CacheEnabled: true}
	if opts.KV != nil {
		kvOpts = *opts.KV
	}
	tb := &Testbed{V: vclock.NewVirtual(Epoch)}
	var err error
	tb.V.Run(func() {
		tb.Home = core.NewHome(tb.V, core.HomeOptions{Seed: opts.Seed, KV: kvOpts, Config: opts.Config})
		tb.Cloud = cloudsim.New(tb.V, tb.Home.Net())
		tb.Home.AttachCloud(tb.Cloud)
		for _, prof := range opts.Backends {
			tb.Home.AttachBackend(cloudsim.NewRemote(tb.V, tb.Home.Net(), prof))
		}
		for i := 0; i < opts.Netbooks; i++ {
			var n *core.Node
			n, err = tb.Home.AddNode(tb.NetbookConfig(i))
			if err != nil {
				return
			}
			tb.Netbooks = append(tb.Netbooks, n)
		}
		tb.Desktop, err = tb.Home.AddNode(core.NodeConfig{
			Addr:           "desktop:9000",
			Machine:        DesktopSpec(),
			MandatoryBytes: 16 * GB,
			VoluntaryBytes: 16 * GB,
		})
		if err != nil {
			return
		}
		err = tb.PublishResources()
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: build testbed: %w", err)
	}
	return tb, nil
}

// NetbookConfig is the construction config of netbook i (zero-based), as
// New used it. Availability experiments rejoin a crashed netbook by
// passing this back to Home.AddNode. Netbook 0 is the cloud gateway —
// kill a higher-numbered one if the cloud rung must stay reachable.
func (tb *Testbed) NetbookConfig(i int) core.NodeConfig {
	return core.NodeConfig{
		Addr:           fmt.Sprintf("netbook-%d:9000", i+1),
		Machine:        NetbookSpec(fmt.Sprintf("netbook-%d", i+1)),
		MandatoryBytes: 4 * GB,
		VoluntaryBytes: 2 * GB,
		CloudGateway:   i == 0,
	}
}

// Run executes fn as the root actor of the testbed's virtual clock.
func (tb *Testbed) Run(fn func()) { tb.V.Run(fn) }

// AllNodes returns every node, netbooks first then the desktop.
func (tb *Testbed) AllNodes() []*core.Node {
	out := make([]*core.Node, 0, len(tb.Netbooks)+1)
	out = append(out, tb.Netbooks...)
	if tb.Desktop != nil {
		out = append(out, tb.Desktop)
	}
	return out
}

// PublishResources pushes a fresh resource record for every node; call
// from inside Run (or rely on the periodic monitors). Nodes that fail
// to publish are reported in the joined error; the rest still publish.
func (tb *Testbed) PublishResources() error {
	var errs []error
	for _, n := range tb.AllNodes() {
		if err := n.Monitor().PublishOnce(); err != nil {
			errs = append(errs, fmt.Errorf("publish %s: %w", n.Addr(), err))
		}
	}
	return errors.Join(errs...)
}

// StartMonitors launches every node's periodic resource publisher.
func (tb *Testbed) StartMonitors() {
	for _, n := range tb.AllNodes() {
		n.Monitor().Start()
	}
}

// StopMonitors halts the periodic publishers; call from inside Run so
// virtual time can advance while waiting for the loops to exit.
func (tb *Testbed) StopMonitors() {
	for _, n := range tb.AllNodes() {
		n.Monitor().Stop()
	}
}
