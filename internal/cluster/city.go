package cluster

import (
	"fmt"

	"cloud4home/internal/core"
	"cloud4home/internal/kv"
	"cloud4home/internal/vclock"
)

// CityOptions configures a city-scale build: one overlay spanning many
// homes, each contributing a single netbook-class node. This is the §VII
// "multiple Cloud4Home systems interact" direction pushed to municipal
// scale, where the simulator core itself — membership storage, monitor
// scheduling, flat routing — becomes the bottleneck; the shared membership
// arena is always on, LazyMonitors and SuperPeerRegions address the rest.
type CityOptions struct {
	// Seed drives all simulated randomness.
	Seed int64
	// Homes is the number of participating home nodes (default 1000).
	Homes int
	// KV configures the metadata store (default: replication 1, caching).
	KV *kv.Options
	// LazyMonitors and SuperPeerRegions pass through to the fields of the
	// same name on core.HomeOptions: on-demand resource records, and the
	// regional aggregation tier (≤ 1 keeps flat routing).
	LazyMonitors     bool
	SuperPeerRegions int
}

// City is the assembled city-scale deployment.
type City struct {
	V     *vclock.Virtual
	Home  *core.Home
	Nodes []*core.Node
}

// NewCity builds a city-scale overlay of opts.Homes nodes. Construction
// runs inside the virtual clock so join traffic is charged; periodic
// monitors are not started (city runs publish on demand via the
// LazyMonitors option, or explicitly). Node 0 is the cloud gateway.
func NewCity(opts CityOptions) (*City, error) {
	if opts.Homes == 0 {
		opts.Homes = 1000
	}
	kvOpts := kv.Options{ReplicationFactor: 1, CacheEnabled: true}
	if opts.KV != nil {
		kvOpts = *opts.KV
	}
	city := &City{V: vclock.NewVirtual(Epoch)}
	var err error
	city.V.Run(func() {
		city.Home = core.NewHome(city.V, core.HomeOptions{
			Seed:             opts.Seed,
			KV:               kvOpts,
			LazyMonitors:     opts.LazyMonitors,
			SuperPeerRegions: opts.SuperPeerRegions,
		})
		city.Nodes = make([]*core.Node, 0, opts.Homes)
		for i := 0; i < opts.Homes; i++ {
			var n *core.Node
			n, err = city.Home.AddNode(core.NodeConfig{
				Addr:           fmt.Sprintf("home-%06d:9000", i),
				Machine:        NetbookSpec(fmt.Sprintf("home-%06d", i)),
				MandatoryBytes: 4 * GB,
				VoluntaryBytes: 2 * GB,
				CloudGateway:   i == 0,
			})
			if err != nil {
				return
			}
			city.Nodes = append(city.Nodes, n)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: build city: %w", err)
	}
	return city, nil
}

// Run executes fn as a registered virtual-clock worker.
func (c *City) Run(fn func()) { c.V.Run(fn) }
