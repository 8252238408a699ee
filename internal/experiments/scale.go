package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/kv"
)

// ScaleConfig parameterises the scalability study of the paper's future
// work (§VII iii): "to understand how to scale to larger numbers of
// @home ... participants".
type ScaleConfig struct {
	Seed int64
	// Sizes are the home-cloud sizes swept (device counts).
	Sizes []int
	// Objects stored/fetched per point.
	Objects int
	// ObjectSize per object.
	ObjectSize int64
}

// DefaultScale sweeps 4 to 32 devices.
func DefaultScale(seed int64) ScaleConfig {
	return ScaleConfig{
		Seed:       seed,
		Sizes:      []int{4, 8, 16, 32},
		Objects:    30,
		ObjectSize: 4 * MB,
	}
}

// ScaleRow is one home-size measurement.
type ScaleRow struct {
	Nodes int
	// Lookup is the mean DHT metadata lookup latency.
	Lookup Stats
	// Fetch is the mean full off-node fetch latency.
	Fetch Stats
	// JoinCost is the time for one additional node to join the overlay at
	// this size.
	JoinCost time.Duration
}

// ScaleResult shows how metadata and data-path costs grow with home size.
type ScaleResult struct {
	Rows []ScaleRow
}

// RunScale executes the sweep. Keys spread over more owners as the home
// grows, so lookups take more hops but must stay within the O(log n)
// behaviour of prefix routing.
func RunScale(cfg ScaleConfig) (_ *ScaleResult, err error) {
	defer catch(&err)
	res := &ScaleResult{}
	for _, n := range cfg.Sizes {
		row := ScaleRow{Nodes: n}
		opts := kv.Options{CacheEnabled: false} // no caching: measure routing
		check(scenario{
			name: fmt.Sprintf("scale n=%d", n),
			opts: cluster.Options{Seed: cfg.Seed, Netbooks: n - 1, KV: &opts},
			setup: func(e *env) {
				sess := e.openEach(e.Netbooks[0], e.Desktop)
				writer, reader := sess[0], sess[1]
				var lookups, fetches []time.Duration
				for i := 0; i < cfg.Objects; i++ {
					name := fmt.Sprintf("scale/%d/%d.bin", n, i)
					put(writer, name, "b", nil, cfg.ObjectSize, blocking)
					fb := must(reader.FetchObject(name)).Breakdown
					lookups = append(lookups, fb.DHTLookup)
					fetches = append(fetches, fb.Total)
				}
				row.Lookup = Summarize(lookups)
				row.Fetch = Summarize(fetches)

				// Join cost at this scale: one more device enters the overlay.
				start := e.V.Now()
				must(e.Home.AddNode(core.NodeConfig{
					Addr:           "late-joiner:9000",
					Machine:        cluster.NetbookSpec("late-joiner"),
					MandatoryBytes: cluster.GB,
				}))
				row.JoinCost = e.V.Now().Sub(start)
			},
		}.run())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep.
func (r *ScaleResult) Table() Table {
	t := Table{
		Title:   "Scalability (§VII iii): costs vs home-cloud size",
		Headers: []string{"Nodes", "DHTLookup(ms)", "OffNodeFetch(s)", "JoinCost(ms)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			Millis(row.Lookup.Mean),
			Seconds(row.Fetch.Mean),
			Millis(row.JoinCost),
		})
	}
	return t
}
