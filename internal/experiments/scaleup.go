package experiments

import (
	"fmt"
	"sync"
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
	// Workers bounds how many (mode, clients) cells run concurrently on
	// host goroutines (0/1 = sequential). Every cell is its own virtual
	// clock universe, so results are identical at any worker count; the
	// cells just overlap on host CPUs.
	Workers int
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

// scaleUpModes are the three compared configurations.
func scaleUpModes(cfg ScaleUpConfig) []struct {
	name string
	dp   core.DataPlaneConfig
} {
	return []struct {
		name string
		dp   core.DataPlaneConfig
	}{
		{"sequential", core.DataPlaneConfig{}},
		{"striped", core.DataPlaneConfig{StripedFetch: true, DataReplicas: cfg.Replicas}},
		{"striped+cache", core.DataPlaneConfig{
			StripedFetch: true, DataReplicas: cfg.Replicas, CacheBytes: 512 * MB,
		}},
	}
}

// RunScaleUp executes the sweep. All objects are stored by the desktop
// (the single primary holder), so sequential fetches serialise on its
// NIC; striping spreads the load over the replica holders, and the cache
// turns each reader's second sweep into local hits. The (mode, clients)
// cells are independent simulations; Workers > 1 runs them concurrently
// on host goroutines with results merged by index.
func RunScaleUp(cfg ScaleUpConfig) (*ScaleUpResult, error) {
	maxClients := 0
	for _, c := range cfg.Clients {
		if c > maxClients {
			maxClients = c
		}
	}
	type cellSpec struct {
		mode    string
		dp      core.DataPlaneConfig
		clients int
	}
	var cells []cellSpec
	for _, mode := range scaleUpModes(cfg) {
		for _, clients := range cfg.Clients {
			cells = append(cells, cellSpec{mode: mode.name, dp: mode.dp, clients: clients})
		}
	}
	rows := make([]ScaleUpRow, len(cells))
	errs := make([]error, len(cells))

	runCell := func(i int) {
		mode, clients := cells[i], cells[i].clients
		// Readers start at netbook index cfg.Replicas so they never hold
		// a replica themselves (replicateData fills the lowest-address
		// netbooks first, all voluntary bins being equal).
		tb, err := cluster.New(cluster.Options{
			Seed:      cfg.Seed,
			Netbooks:  cfg.Replicas + maxClients,
			DataPlane: mode.dp,
		})
		if err != nil {
			errs[i] = err
			return
		}
		row := ScaleUpRow{Mode: mode.mode, Clients: clients}
		var runErr error
		tb.Run(func() {
			writer, err := tb.Desktop.OpenSession()
			if err != nil {
				runErr = err
				return
			}
			defer writer.Close()
			names := make([]string, cfg.Objects)
			for j := range names {
				names[j] = fmt.Sprintf("scaleup/%s/%d.bin", mode.mode, j)
				if err := writer.CreateObject(names[j], "b", nil); err != nil {
					runErr = err
					return
				}
				if _, err := writer.StoreObject(names[j], nil, cfg.ObjectSize, core.StoreOptions{Blocking: true}); err != nil {
					runErr = err
					return
				}
			}

			// Every reader sweeps the hot set twice, on its own netbook.
			// Indexed result slots plus a per-worker stagger keep the run
			// deterministic under the virtual clock.
			durs := make([][]time.Duration, clients)
			var ferr firstErr
			var wg sync.WaitGroup
			start := tb.V.Now()
			for w := 0; w < clients; w++ {
				w := w
				wg.Add(1)
				tb.V.Go(func() {
					defer wg.Done()
					sess, err := tb.Netbooks[cfg.Replicas+w].OpenSession()
					if err != nil {
						ferr.set(err)
						return
					}
					defer sess.Close()
					tb.V.Sleep(time.Duration(w) * 500 * time.Microsecond)
					for pass := 0; pass < 2; pass++ {
						for _, name := range names {
							s0 := tb.V.Now()
							if _, err := sess.FetchObject(name); err != nil {
								ferr.set(fmt.Errorf("fetch %s: %w", name, err))
								return
							}
							durs[w] = append(durs[w], tb.V.Now().Sub(s0))
						}
					}
				})
			}
			tb.V.Block(wg.Wait)
			if runErr == nil {
				runErr = ferr.get()
			}
			row.Wall = tb.V.Now().Sub(start)
			var all []time.Duration
			for _, d := range durs {
				all = append(all, d...)
			}
			row.Fetch = Summarize(all)
			moved := int64(clients) * 2 * int64(cfg.Objects) * cfg.ObjectSize
			row.AggregateMBps = Throughput(moved, row.Wall)
		})
		if runErr != nil {
			errs[i] = fmt.Errorf("scale-up %s clients=%d: %w", mode.mode, clients, runErr)
			return
		}
		rows[i] = row
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers == 1 {
		for i := range cells {
			runCell(i)
		}
	} else {
		q := &jobQueue{limit: len(cells)}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i, ok := q.take()
					if !ok {
						return
					}
					runCell(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &ScaleUpResult{Rows: rows}, nil
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
func RunAblationDataCache(seed int64) (*AblationDataCacheResult, error) {
	res := &AblationDataCacheResult{Size: 8 * MB}
	tb, err := cluster.New(cluster.Options{
		Seed:      seed,
		DataPlane: core.DataPlaneConfig{CacheBytes: 512 * MB},
	})
	if err != nil {
		return nil, err
	}
	const objects = 6
	var runErr error
	tb.Run(func() {
		writer, err := tb.Desktop.OpenSession()
		if err != nil {
			runErr = err
			return
		}
		defer writer.Close()
		reader, err := tb.Netbooks[1].OpenSession()
		if err != nil {
			runErr = err
			return
		}
		defer reader.Close()

		names := make([]string, objects)
		var miss, hit, local []time.Duration
		for i := range names {
			names[i] = fmt.Sprintf("cache-abl/%d.bin", i)
			if err := writer.CreateObject(names[i], "b", nil); err != nil {
				runErr = err
				return
			}
			if _, err := writer.StoreObject(names[i], nil, res.Size, core.StoreOptions{Blocking: true}); err != nil {
				runErr = err
				return
			}
			measure := func(s *core.Session, out *[]time.Duration) bool {
				start := tb.V.Now()
				if _, err := s.FetchObject(names[i]); err != nil {
					runErr = err
					return false
				}
				*out = append(*out, tb.V.Now().Sub(start))
				return true
			}
			if !measure(reader, &miss) || !measure(reader, &hit) || !measure(writer, &local) {
				return
			}
		}
		res.Miss = Summarize(miss)
		res.Hit = Summarize(hit)
		res.Local = Summarize(local)
		st := tb.Netbooks[1].OpStats()
		res.Hits, res.Misses = st.CacheHits, st.CacheMisses

		// Overwrite the first object: the reader's cached copy must die and
		// the next fetch go back over the wire.
		if _, err := writer.StoreObjectData(names[0], "b", make([]byte, 64), core.StoreOptions{Blocking: true}); err != nil {
			runErr = err
			return
		}
		fr, err := reader.FetchObject(names[0])
		if err != nil {
			runErr = err
			return
		}
		res.InvalidatedOnOverwrite = fr.Source != "cache:"+tb.Netbooks[1].Addr() &&
			int64(len(fr.Data)) == 64
	})
	if runErr != nil {
		return nil, fmt.Errorf("data cache ablation: %w", runErr)
	}
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
