package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
)

// ScaleUpConfig parameterises the concurrent data-plane scale-up study:
// many client threads hammering the same hot objects, with the data plane
// sequential (the paper's behaviour), striped across payload replicas,
// and striped plus the dom0 object cache.
type ScaleUpConfig struct {
	Seed int64
	// Clients are the concurrent reader counts swept; each reader runs on
	// its own netbook so the bottleneck is the holders, not one client NIC.
	Clients []int
	// Objects is the size of the hot set every reader sweeps twice.
	Objects int
	// ObjectSize per object.
	ObjectSize int64
	// Replicas is the payload replica count in the striped modes.
	Replicas int
}

// DefaultScaleUp sweeps 1, 2 and 4 client threads over four 8 MB objects.
func DefaultScaleUp(seed int64) ScaleUpConfig {
	return ScaleUpConfig{
		Seed:       seed,
		Clients:    []int{1, 2, 4},
		Objects:    4,
		ObjectSize: 8 * MB,
		Replicas:   2,
	}
}

// ScaleUpRow is one (mode, client count) measurement.
type ScaleUpRow struct {
	Mode    string
	Clients int
	// Wall is the batch's virtual wall time, first fetch issued to last
	// fetch done.
	Wall time.Duration
	// Fetch summarises individual fetch latencies across all readers.
	Fetch Stats
	// AggregateMBps is total bytes moved to guests divided by Wall.
	AggregateMBps float64
}

// ScaleUpResult compares the data-plane modes as client load grows.
type ScaleUpResult struct {
	Rows []ScaleUpRow
}

// RunScaleUp executes the sweep. All objects are stored by the desktop
// (the single primary holder), so sequential fetches serialise on its
// NIC; striping spreads the load over the replica holders, and the cache
// turns each reader's second sweep into local hits.
func RunScaleUp(cfg ScaleUpConfig) (_ *ScaleUpResult, err error) {
	defer catch(&err)
	maxClients := 0
	for _, c := range cfg.Clients {
		maxClients = max(maxClients, c)
	}
	res := &ScaleUpResult{}
	for _, mode := range []struct {
		name string
		dp   core.DataPlaneConfig
	}{
		{"sequential", core.DataPlaneConfig{}},
		{"striped", core.DataPlaneConfig{StripedFetch: true, DataReplicas: cfg.Replicas}},
		{"striped+cache", core.DataPlaneConfig{
			StripedFetch: true, DataReplicas: cfg.Replicas, CacheBytes: 512 * MB,
		}},
	} {
		for _, clients := range cfg.Clients {
			res.Rows = append(res.Rows, runScaleUpCell(cfg, mode.name, mode.dp, clients, maxClients))
		}
	}
	return res, nil
}

// runScaleUpCell has every reader sweep the hot set twice, each from its
// own netbook. Readers start at netbook index cfg.Replicas so they never
// hold a replica themselves (replicateData fills the lowest-address
// netbooks first, all voluntary bins being equal).
func runScaleUpCell(cfg ScaleUpConfig, mode string, dp core.DataPlaneConfig, clients, maxClients int) ScaleUpRow {
	row := ScaleUpRow{Mode: mode, Clients: clients}
	names := make([]string, cfg.Objects)
	durs := make([][]time.Duration, clients)
	check(scenario{
		name: fmt.Sprintf("scale-up %s clients=%d", mode, clients),
		opts: cluster.Options{Seed: cfg.Seed, Netbooks: cfg.Replicas + maxClients, DataPlane: dp},
		setup: func(e *env) {
			writer := e.open(e.Desktop)
			for j := range names {
				names[j] = fmt.Sprintf("scaleup/%s/%d.bin", mode, j)
				put(writer, names[j], "b", nil, cfg.ObjectSize, blocking)
			}
		},
		clients: clients,
		at:      func(e *env, w int) *core.Node { return e.Netbooks[cfg.Replicas+w] },
		client: func(e *env, w int, sess *core.Session) {
			for pass := 0; pass < 2; pass++ {
				for _, name := range names {
					s0 := e.V.Now()
					must(sess.FetchObject(name))
					durs[w] = append(durs[w], e.V.Now().Sub(s0))
				}
			}
		},
		fold: func(e *env) {
			row.Wall = e.V.Now().Sub(e.start)
			var all []time.Duration
			for _, d := range durs {
				all = append(all, d...)
			}
			row.Fetch = Summarize(all)
			moved := int64(clients) * 2 * int64(cfg.Objects) * cfg.ObjectSize
			row.AggregateMBps = Throughput(moved, row.Wall)
		},
	}.run())
	return row
}

// Row returns the (mode, clients) measurement, or false.
func (r *ScaleUpResult) Row(mode string, clients int) (ScaleUpRow, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode && row.Clients == clients {
			return row, true
		}
	}
	return ScaleUpRow{}, false
}

// Table renders the sweep.
func (r *ScaleUpResult) Table() Table {
	t := Table{
		Title:   "Concurrent data plane: aggregate fetch throughput vs client threads",
		Headers: []string{"Mode", "Clients", "Wall(s)", "FetchMean(s)", "Aggregate(MB/s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Clients),
			Seconds(row.Wall),
			Seconds(row.Fetch.Mean),
			fmt.Sprintf("%.1f", row.AggregateMBps),
		})
	}
	return t
}

// AblationDataCacheResult measures the dom0 object cache: miss vs hit vs
// plain local-fetch latency, plus invalidation correctness.
type AblationDataCacheResult struct {
	Size int64
	// Miss is the cold remote-fetch latency (data crosses the LAN).
	Miss Stats
	// Hit is the repeat-fetch latency served from the reader's dom0 cache.
	Hit Stats
	// Local is the holder's own fetch latency — the floor a cache hit
	// should approach (both are DHT lookup + an in-dom0 copy + the
	// inter-domain transfer).
	Local Stats
	// Hits and Misses are the reader's cache counters after the run.
	Hits, Misses int64
	// InvalidatedOnOverwrite reports that overwriting an object purged the
	// cached payload (the follow-up fetch went back to the wire).
	InvalidatedOnOverwrite bool
}

// RunAblationDataCache measures the cache against the local-fetch floor.
func RunAblationDataCache(seed int64) (_ *AblationDataCacheResult, err error) {
	defer catch(&err)
	res := &AblationDataCacheResult{Size: 8 * MB}
	check(scenario{
		name: "data cache ablation",
		opts: cluster.Options{Seed: seed, DataPlane: core.DataPlaneConfig{CacheBytes: 512 * MB}},
		setup: func(e *env) {
			sess := e.openEach(e.Desktop, e.Netbooks[1])
			writer, reader := sess[0], sess[1]
			names := make([]string, 6)
			var miss, hit, local []time.Duration
			for i := range names {
				names[i] = fmt.Sprintf("cache-abl/%d.bin", i)
				put(writer, names[i], "b", nil, res.Size, blocking)
				for _, m := range []struct {
					sess *core.Session
					out  *[]time.Duration
				}{{reader, &miss}, {reader, &hit}, {writer, &local}} {
					start := e.V.Now()
					must(m.sess.FetchObject(names[i]))
					*m.out = append(*m.out, e.V.Now().Sub(start))
				}
			}
			res.Miss = Summarize(miss)
			res.Hit = Summarize(hit)
			res.Local = Summarize(local)
			st := e.Netbooks[1].OpStats()
			res.Hits, res.Misses = st.CacheHits, st.CacheMisses

			// Overwrite the first object: the reader's cached copy must die
			// and the next fetch go back over the wire.
			must(writer.StoreObjectData(names[0], "b", make([]byte, 64), blocking))
			fr := must(reader.FetchObject(names[0]))
			res.InvalidatedOnOverwrite = fr.Source != "cache:"+e.Netbooks[1].Addr() &&
				int64(len(fr.Data)) == 64
		},
	}.run())
	return res, nil
}

// Table renders the comparison.
func (r *AblationDataCacheResult) Table() Table {
	inval := "stale"
	if r.InvalidatedOnOverwrite {
		inval = "purged"
	}
	return Table{
		Title:   fmt.Sprintf("Ablation: dom0 object cache (%d MB fetches)", r.Size/MB),
		Headers: []string{"Path", "Mean(ms)", "Stdev(ms)"},
		Rows: [][]string{
			{"remote miss", Millis(r.Miss.Mean), Millis(r.Miss.Stdev)},
			{"cache hit", Millis(r.Hit.Mean), Millis(r.Hit.Stdev)},
			{"local fetch (floor)", Millis(r.Local.Mean), Millis(r.Local.Stdev)},
			{fmt.Sprintf("counters: %d hits / %d misses", r.Hits, r.Misses), "", ""},
			{"cache on overwrite", inval, ""},
		},
	}
}
