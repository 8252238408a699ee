package experiments

import (
	"fmt"
	"runtime"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/trace"
)

// CityScaleConfig parameterises the city-scale sweep: one overlay of N
// home nodes driven by a deterministic population workload.
type CityScaleConfig struct {
	Seed int64
	// Nodes is the sweep's population sizes (default 1000, 10000, 100000).
	Nodes []int
	// Ops is the workload's operation count per size (default 4096).
	Ops int
	// Objects is the shared catalogue size (default 256).
	Objects int
	// ChurnEvents is the number of node failures injected after the
	// workload to measure KV repair traffic (default 4).
	ChurnEvents int
	// Regions configures the super-peer cell's aggregation tier
	// (default 8); the cell runs at the smallest sweep size.
	Regions int
	// Host reads the host's wall clock, to time each build + run for the
	// table's "Host wall" column; nil leaves the column at zero.
	Host func() time.Time
}

// CityScaleMetrics are one run's virtual-time (and virtual-traffic)
// results: every field is schedule-determined, so two runs of the same
// city differing only in host-side mechanism must produce equal structs
// (the 1 000-home struct is pinned in testdata/golden). Host-side
// measurements live on CityScaleRow instead.
type CityScaleMetrics struct {
	Nodes int
	// Ops splits the executed workload.
	Stores, Fetches int
	// LookupHops aggregates kv get hop counts; StoreHops the put routes.
	MeanLookupHops float64
	MaxLookupHops  int
	MeanStoreHops  float64
	// FetchMean/FetchMax summarise virtual fetch latency.
	FetchMean, FetchMax time.Duration
	// Messages is the cumulative wire message count after the workload;
	// RepairMessages the additional messages the churn window generated.
	Messages       int64
	RepairMessages int64
	// Elapsed is the virtual time consumed by build + workload + churn.
	Elapsed time.Duration
}

// CityScaleRow is one sweep size's full record.
type CityScaleRow struct {
	Metrics CityScaleMetrics
	// BytesPerNode is the host resident-heap delta of building the city,
	// divided by the node count (measured under runtime.GC, so it is a
	// host-side figure).
	BytesPerNode int64
	// Wall is the host wall clock of the build + run.
	Wall time.Duration
}

// CitySuperPeerCell measures the aggregation tier at the smallest sweep
// size: the same workload routed through regional super-peers.
type CitySuperPeerCell struct {
	Nodes, Regions int
	// MeanHops/MaxHops are total per-lookup hops under the tier (home →
	// regional aggregator → aggregator → owner is at most 3).
	MeanHops float64
	MaxHops  int
	// SuperHops counts hops that landed on an aggregator; HomeHops the
	// rest. Together they are the per-tier hop split.
	SuperHops, HomeHops int64
}

// CityScaleResult is RunCityScale's report.
type CityScaleResult struct {
	Rows      []CityScaleRow
	SuperPeer CitySuperPeerCell
}

// cityArm builds one city and drives the population workload through its
// kv layer, then injects churn and measures repair traffic. All ops run
// sequentially inside the virtual clock, so the schedule — and every
// metric — is a pure function of the seed and opts. It is the one city
// loop: the sweep and the golden test run it with the zero Config, the
// super-peer cell with the aggregation tier on. The city starts no
// monitor and reads no resource record.
func cityArm(cfg CityScaleConfig, opts cluster.CityOptions) (_ cityRun, err error) {
	defer catch(&err)
	ops := must(trace.GeneratePopulation(trace.PopulationConfig{
		Seed:          cfg.Seed,
		Homes:         opts.Homes,
		Objects:       cfg.Objects,
		Ops:           cfg.Ops,
		StoreFraction: 0.4,
	}))
	r := cityRun{CityScaleMetrics: CityScaleMetrics{Nodes: opts.Homes}}
	m := &r.CityScaleMetrics
	s := scenario{name: fmt.Sprintf("city scale n=%d regions=%d", opts.Homes, opts.Config.SuperPeerRegions), city: &opts, setup: func(e *env) {
		kvs := e.Home.KV()
		var hopSum, storeHopSum int
		fetchDurs := make([]time.Duration, 0, len(ops))
		payload := []byte(`{"city":"meta"}`)
		for _, op := range ops {
			from := e.nodes[op.Home].ID()
			key := ids.HashString(fmt.Sprintf("city/%06d", op.Object))
			if op.Kind == trace.OpStore {
				pr := must(kvs.Put(from, key, payload, kv.Overwrite))
				m.Stores++
				storeHopSum += pr.Hops
				r.superHops += int64(pr.SuperHops)
				r.homeHops += int64(pr.Hops - pr.SuperHops)
				continue
			}
			s0 := e.V.Now()
			gr := must(kvs.Get(from, key))
			m.Fetches++
			hopSum += gr.Hops
			m.MaxLookupHops = max(m.MaxLookupHops, gr.Hops)
			r.superHops += int64(gr.SuperHops)
			r.homeHops += int64(gr.Hops - gr.SuperHops)
			fetchDurs = append(fetchDurs, e.V.Now().Sub(s0))
		}
		if m.Fetches > 0 {
			m.MeanLookupHops = float64(hopSum) / float64(m.Fetches)
		}
		if m.Stores > 0 {
			m.MeanStoreHops = float64(storeHopSum) / float64(m.Stores)
		}
		st := Summarize(fetchDurs)
		m.FetchMean, m.FetchMax = st.Mean, st.Max
		m.Messages, _, _ = e.Home.Net().Traffic()

		// Churn window: crash the last ChurnEvents non-gateway nodes and
		// let the kv layer's departure handlers re-replicate. The message
		// delta is the repair traffic.
		for i := 0; i < min(cfg.ChurnEvents, len(e.nodes)-1); i++ {
			victim := e.nodes[len(e.nodes)-1-i]
			check(e.Home.Mesh().Fail(victim.ID()))
			kvs.Detach(victim.ID())
		}
		after, _, _ := e.Home.Net().Traffic()
		m.RepairMessages = after - m.Messages
		m.Elapsed = e.V.Now().Sub(cluster.Epoch)
	}}

	// The build is measured on its own: its heap delta is the city's
	// resident size.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := must(s.build())
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		r.bytesPerNode = int64(after.HeapAlloc-before.HeapAlloc) / int64(opts.Homes)
	}
	check(s.drive(e))
	return r, nil
}

// cityRun is one pass of the population workload over a city.
type cityRun struct {
	CityScaleMetrics
	// superHops and homeHops split every get's and put's hops by tier.
	superHops, homeHops int64
	// bytesPerNode is the host heap the city's build took, per node.
	bytesPerNode int64
}

// RunCityScale sweeps the configured node counts, then measures the
// super-peer tier at the smallest.
func RunCityScale(cfg CityScaleConfig) (_ *CityScaleResult, err error) {
	defer catch(&err)
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{1_000, 10_000, 100_000}
	}
	if cfg.Ops == 0 {
		cfg.Ops = 4096
	}
	if cfg.Objects == 0 {
		cfg.Objects = 256
	}
	if cfg.ChurnEvents == 0 {
		cfg.ChurnEvents = 4
	}
	if cfg.Regions == 0 {
		cfg.Regions = 8
	}
	host := cfg.Host
	if host == nil {
		host = func() time.Time { return time.Time{} }
	}

	res := &CityScaleResult{}
	for _, n := range cfg.Nodes {
		t0 := host()
		r := must(cityArm(cfg, cluster.CityOptions{Seed: cfg.Seed, Homes: n}))
		res.Rows = append(res.Rows, CityScaleRow{Metrics: r.CityScaleMetrics, BytesPerNode: r.bytesPerNode, Wall: host().Sub(t0)})
	}

	// Super-peer cell: the smallest size with the aggregation tier on. The
	// tier is a modeled change (hop structure differs), so it is measured
	// beside the sweep, not inside it.
	n := cfg.Nodes[0]
	r := must(cityArm(cfg, cluster.CityOptions{Seed: cfg.Seed, Homes: n, Config: core.Config{SuperPeerRegions: cfg.Regions}}))
	res.SuperPeer = CitySuperPeerCell{
		Nodes: n, Regions: cfg.Regions,
		MeanHops: r.MeanLookupHops, MaxHops: r.MaxLookupHops,
		SuperHops: r.superHops, HomeHops: r.homeHops,
	}
	return res, nil
}

// Table renders the sweep.
func (r *CityScaleResult) Table() Table {
	t := Table{
		Title: "City scale: one overlay of N homes, shared membership arena",
		Headers: []string{"Nodes", "Lookup hops", "Fetch mean", "Messages", "Repair msgs",
			"Bytes/node", "Host wall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Metrics.Nodes),
			fmt.Sprintf("%.2f", row.Metrics.MeanLookupHops),
			Seconds(row.Metrics.FetchMean),
			fmt.Sprintf("%d", row.Metrics.Messages),
			fmt.Sprintf("%d", row.Metrics.RepairMessages),
			fmt.Sprintf("%d", row.BytesPerNode),
			row.Wall.Round(time.Millisecond).String(),
		})
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("sp:%d/r%d", r.SuperPeer.Nodes, r.SuperPeer.Regions),
		fmt.Sprintf("%.2f (max %d)", r.SuperPeer.MeanHops, r.SuperPeer.MaxHops),
		"-", "-", "-",
		fmt.Sprintf("super %d / home %d", r.SuperPeer.SuperHops, r.SuperPeer.HomeHops),
		"-",
	})
	return t
}
