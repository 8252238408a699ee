package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/policy"
	"cloud4home/internal/services"
	"cloud4home/internal/xenchan"
)

// AblationKVCacheResult compares metadata lookup cost with path caching
// on vs off (§III-A's "metadata caching and replication functionality").
type AblationKVCacheResult struct {
	// ColdLookup is the first-lookup latency (identical in both modes).
	ColdLookup Stats
	// WarmCached and WarmUncached are repeat-lookup latencies with the
	// cache enabled and disabled.
	WarmCached   Stats
	WarmUncached Stats
	// HitRate is the cache hit fraction across the cached run.
	HitRate float64
}

// RunAblationKVCache measures repeated metadata lookups from every node.
func RunAblationKVCache(seed int64) (_ *AblationKVCacheResult, err error) {
	defer catch(&err)
	res := &AblationKVCacheResult{}
	for _, cached := range []bool{true, false} {
		opts := kv.Options{CacheEnabled: cached}
		var cold, warm []time.Duration
		check(scenario{
			name: fmt.Sprintf("kv cache ablation (cached=%v)", cached),
			opts: cluster.Options{Seed: seed, KV: &opts},
			setup: func(e *env) {
				// Publish 40 keys, then look each up twice from every node.
				keys := putKeys(e, "ablation/kv-%d", 40, "meta")
				for _, n := range e.nodes {
					for _, k := range keys {
						for _, out := range []*[]time.Duration{&cold, &warm} {
							start := e.V.Now()
							must(e.Home.KV().Get(n.ID(), k))
							*out = append(*out, e.V.Now().Sub(start))
						}
					}
				}
				if !cached {
					res.WarmUncached = Summarize(warm)
					return
				}
				res.ColdLookup = Summarize(cold)
				res.WarmCached = Summarize(warm)
				if lookups, hits, _ := e.Home.KV().Stats().Snapshot(); lookups > 0 {
					res.HitRate = float64(hits) / float64(lookups)
				}
			},
		}.run())
	}
	return res, nil
}

// putKeys publishes n metadata keys named by format from the desktop.
func putKeys(e *env, format string, n int, value string) []ids.ID {
	keys := make([]ids.ID, n)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf(format, i))
		must(e.Home.KV().Put(e.Desktop.ID(), keys[i], []byte(value), kv.Overwrite))
	}
	return keys
}

// Table renders the comparison.
func (r *AblationKVCacheResult) Table() Table {
	return Table{
		Title:   "Ablation: KV path caching (metadata lookup latency)",
		Headers: []string{"Lookup", "Mean(ms)", "Stdev(ms)"},
		Rows: [][]string{
			{"cold (either mode)", Millis(r.ColdLookup.Mean), Millis(r.ColdLookup.Stdev)},
			{"warm, cache ON", Millis(r.WarmCached.Mean), Millis(r.WarmCached.Stdev)},
			{"warm, cache OFF", Millis(r.WarmUncached.Mean), Millis(r.WarmUncached.Stdev)},
			{"cache hit rate", fmt.Sprintf("%.0f%%", r.HitRate*100), ""},
		},
	}
}

// AblationReplicationRow is one replication factor's survival outcome.
type AblationReplicationRow struct {
	Factor    int
	Stored    int
	Survived  int
	WireSends int
}

// AblationReplicationResult measures metadata survival when two nodes
// crash, across replication factors.
type AblationReplicationResult struct {
	Rows []AblationReplicationRow
}

// RunAblationReplication crashes two of six nodes after storing metadata
// and counts surviving keys per replication factor.
func RunAblationReplication(seed int64) (_ *AblationReplicationResult, err error) {
	defer catch(&err)
	res := &AblationReplicationResult{}
	const keys = 60
	for factor := 0; factor <= 3; factor++ {
		opts := kv.Options{ReplicationFactor: factor}
		row := AblationReplicationRow{Factor: factor, Stored: keys}
		check(scenario{
			name: fmt.Sprintf("replication ablation factor %d", factor),
			opts: cluster.Options{Seed: seed, KV: &opts},
			setup: func(e *env) {
				kk := putKeys(e, "repl/%d", keys, "v")
				// Two netbooks crash (no graceful handover).
				for _, victim := range e.Netbooks[:2] {
					check(e.Home.RemoveNode(victim.Addr(), false))
				}
				for _, k := range kk {
					if _, err := e.Home.KV().Get(e.Desktop.ID(), k); err == nil {
						row.Survived++
					} else if !errors.Is(err, kv.ErrNotFound) {
						check(err)
					}
				}
			},
		}.run())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders survival per factor.
func (r *AblationReplicationResult) Table() Table {
	t := Table{
		Title:   "Ablation: replication factor vs metadata survival (2 of 6 nodes crash)",
		Headers: []string{"Factor", "Stored", "Survived", "Survival%"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Factor),
			fmt.Sprintf("%d", row.Stored),
			fmt.Sprintf("%d", row.Survived),
			fmt.Sprintf("%.0f%%", 100*float64(row.Survived)/float64(row.Stored)),
		})
	}
	return t
}

// AblationBlockingResult compares caller-observed store latency for
// blocking vs non-blocking stores across placements.
type AblationBlockingResult struct {
	Size        int64
	BlockingLoc Stats
	NonBlocking Stats
	BlockingRem Stats
	NonBlockRem Stats
}

// RunAblationBlocking measures both modes for local and remote targets.
func RunAblationBlocking(seed int64) (_ *AblationBlockingResult, err error) {
	defer catch(&err)
	res := &AblationBlockingResult{Size: 20 * MB}
	check(scenario{name: "blocking ablation", opts: cluster.Options{Seed: seed}, setup: func(e *env) {
		sess := e.open(e.Netbooks[0])
		for _, m := range []struct {
			prefix string
			opts   core.StoreOptions
			out    *Stats
		}{
			{"abl/blk-loc", blocking, &res.BlockingLoc},
			{"abl/nb-loc", core.StoreOptions{}, &res.NonBlocking},
			{"abl/blk-rem", remote, &res.BlockingRem},
			{"abl/nb-rem", core.StoreOptions{Policy: remote.Policy}, &res.NonBlockRem},
		} {
			var xs []time.Duration
			for i := 0; i < 4; i++ {
				xs = append(xs, put(sess, fmt.Sprintf("%s-%d", m.prefix, i), "b", nil, res.Size, m.opts).Total)
				sess.Node().Flush()
			}
			*m.out = Summarize(xs)
		}
	}}.run())
	return res, nil
}

// Table renders the comparison.
func (r *AblationBlockingResult) Table() Table {
	return Table{
		Title:   fmt.Sprintf("Ablation: blocking vs non-blocking store (%d MB, caller-observed seconds)", r.Size/MB),
		Headers: []string{"Mode", "Local(s)", "Remote(s)"},
		Rows: [][]string{
			{"blocking", Seconds(r.BlockingLoc.Mean), Seconds(r.BlockingRem.Mean)},
			{"non-blocking", Seconds(r.NonBlocking.Mean), Seconds(r.NonBlockRem.Mean)},
		},
	}
}

// AblationPageSizeResult compares inter-domain transfer costs for the
// 4 KB default vs 2 MB huge pages (§IV: "the page size can be increased
// up to 2 MB").
type AblationPageSizeResult struct {
	Sizes []int64
	Std   []time.Duration
	Huge  []time.Duration
}

// RunAblationPageSize measures the channel cost model at both page sizes.
func RunAblationPageSize(_ int64) (_ *AblationPageSizeResult, err error) {
	defer catch(&err)
	res := &AblationPageSizeResult{Sizes: []int64{1 * MB, 10 * MB, 100 * MB}}
	// The model needs only a clock, so the scenario is a home of no nodes.
	check(scenario{name: "page size ablation", nodes: []core.NodeConfig{}, setup: func(e *env) {
		std := must(xenchan.Open(e.V, xenchan.DefaultConfig()))
		huge := must(xenchan.Open(e.V, xenchan.HugePageConfig()))
		for _, size := range res.Sizes {
			res.Std = append(res.Std, must(std.TransferSize(size)))
			res.Huge = append(res.Huge, must(huge.TransferSize(size)))
		}
	}}.run())
	return res, nil
}

// Table renders the comparison.
func (r *AblationPageSizeResult) Table() Table {
	t := Table{
		Title:   "Ablation: XenSocket page size (inter-domain transfer, ms)",
		Headers: []string{"Size(MB)", "4KB pages(ms)", "2MB pages(ms)"},
	}
	for i, size := range r.Sizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size/MB),
			Millis(r.Std[i]),
			Millis(r.Huge[i]),
		})
	}
	return t
}

// AblationDecisionRow is one policy's outcome on a mixed batch.
type AblationDecisionRow struct {
	Policy string
	// Batch is the wall time to complete the batch of process requests.
	Batch time.Duration
	// TargetSpread counts distinct execution targets used.
	TargetSpread int
}

// AblationDecisionResult compares the three decision policies (§III-A's
// 'policy' parameter) on the same batch of processing requests.
type AblationDecisionResult struct {
	Rows []AblationDecisionRow
}

// RunAblationDecision runs a batch of face-detection requests under each
// decision policy and reports completion time and target spread.
func RunAblationDecision(seed int64) (_ *AblationDecisionResult, err error) {
	defer catch(&err)
	res := &AblationDecisionResult{}
	pols := []struct {
		name string
		pol  policy.DecisionPolicy
	}{
		{"performance", policy.Performance{}},
		{"balanced", policy.Balanced{}},
		{"battery-saver", policy.BatterySaver{}},
	}
	const batch = 8
	for _, p := range pols {
		row := AblationDecisionRow{Policy: p.name}
		names := make([]string, batch)
		var requester *core.Node
		var mu sync.Mutex
		targets := map[string]bool{} // guarded by mu
		check(scenario{
			name: "decision ablation " + p.name,
			opts: cluster.Options{Seed: seed},
			setup: func(e *env) {
				// All nodes host the service; requester uses policy p.
				for _, n := range e.nodes {
					check(n.DeployService(services.FaceDetect(), p.name))
				}
				check(e.PublishResources())
				requester = must(e.Home.AddNode(core.NodeConfig{
					Addr:           "requester:9000",
					Machine:        cluster.NetbookSpec("requester"),
					MandatoryBytes: 4 * cluster.GB,
					DecisionPolicy: p.pol,
				}))
				check(requester.Monitor().PublishOnce())
				sess := e.open(requester)
				for i := range names {
					names[i] = fmt.Sprintf("abl/dec-%d.jpg", i)
					put(sess, names[i], "image", nil, 16*MB, blocking)
				}
			},
			// The batch runs concurrently so load actually accumulates on
			// the chosen targets; starts are staggered past the input-move
			// latency so each request sees the loads the previous ones
			// created, and each republishes first so the records are fresh.
			clients: batch,
			at:      func(*env, int) *core.Node { return requester },
			start:   func(i int) time.Duration { return time.Duration(i) * 5 * time.Second },
			client: func(e *env, i int, sess *core.Session) {
				check(e.PublishResources())
				pr := must(sess.Process(names[i], "fdet", services.FaceDetectID))
				mu.Lock()
				defer mu.Unlock()
				targets[pr.Target] = true
			},
			fold: func(e *env) {
				row.Batch = e.V.Now().Sub(e.start)
				row.TargetSpread = len(targets)
			},
		}.run())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r *AblationDecisionResult) Table() Table {
	t := Table{
		Title:   "Ablation: decision policy (8 face-detection requests)",
		Headers: []string{"Policy", "Batch(s)", "DistinctTargets"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy, Seconds(row.Batch), fmt.Sprintf("%d", row.TargetSpread),
		})
	}
	return t
}

// AblationMetadataRow compares the DHT metadata layer against the
// centralized alternative the paper names in §III-A.
type AblationMetadataRow struct {
	Mode string
	// Lookup is the mean metadata lookup latency from non-coordinator
	// nodes.
	Lookup Stats
	// SurvivedCrash is the fraction of keys still resolvable after one
	// node (the coordinator, in centralized mode) crashes.
	SurvivedCrash float64
}

// AblationMetadataResult holds both modes' outcomes.
type AblationMetadataResult struct {
	Rows []AblationMetadataRow
}

// RunAblationMetadata measures lookup latency and crash survival for the
// DHT (replicated) vs centralized metadata layers.
func RunAblationMetadata(seed int64) (_ *AblationMetadataResult, err error) {
	defer catch(&err)
	res := &AblationMetadataResult{}
	modes := []struct {
		name string
		opts kv.Options
	}{
		{"dht (rf=1)", kv.Options{ReplicationFactor: 1}},
		{"centralized", kv.Options{Centralized: true}},
	}
	const keys = 40
	for _, mode := range modes {
		row := AblationMetadataRow{Mode: mode.name}
		check(scenario{
			name: "metadata ablation " + mode.name,
			opts: cluster.Options{Seed: seed, KV: &mode.opts},
			setup: func(e *env) {
				kk := putKeys(e, "meta-abl/%d", keys, "m")
				var ds []time.Duration
				for _, k := range kk {
					start := e.V.Now()
					must(e.Home.KV().Get(e.Netbooks[2].ID(), k))
					ds = append(ds, e.V.Now().Sub(start))
				}
				row.Lookup = Summarize(ds)
				// Crash the first node — the coordinator in centralized mode.
				check(e.Home.RemoveNode(e.Netbooks[0].Addr(), false))
				survived := 0
				for _, k := range kk {
					if _, err := e.Home.KV().Get(e.Desktop.ID(), k); err == nil {
						survived++
					}
				}
				row.SurvivedCrash = float64(survived) / keys
			},
		}.run())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r *AblationMetadataResult) Table() Table {
	t := Table{
		Title:   "Ablation: DHT vs centralized metadata layer (§III-A alternative)",
		Headers: []string{"Mode", "LookupMean(ms)", "Survival after 1 crash"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Mode, Millis(row.Lookup.Mean),
			fmt.Sprintf("%.0f%%", row.SurvivedCrash*100),
		})
	}
	return t
}
