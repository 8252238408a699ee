package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/policy"
	"cloud4home/internal/trace"
)

// FederationConfig parameterises the federation study, which answers
// three questions in one run. Identity: does attaching extra backends
// with a nil core.Config.Backend leave the data path
// bit-identical? Frontier: where do the placement policies land objects
// across three heterogeneous backends, and what does each choice cost in
// latency and dollars? Redundancy: does erasure coding match whole-copy
// replication's availability under a holder crash at lower storage
// overhead?
type FederationConfig struct {
	Seed int64
	// Objects is the frontier catalogue size per policy run; object sizes
	// spread linearly across [MinSize, MaxSize].
	Objects          int
	MinSize, MaxSize int64
	// ErasureK/ErasureN select the redundancy study's code (k-of-n);
	// Replicas is the whole-copy arm's replica count.
	ErasureK, ErasureN int
	Replicas           int
	// Clients/Files/Accesses/MeanGap shape the redundancy study's fetch
	// trace, replayed identically under both arms.
	Clients  int
	Files    int
	Accesses int
	MeanGap  time.Duration
	// KillAt crashes the node holding every primary copy; RejoinAt brings
	// it back with empty bins. Offsets from the replay start.
	KillAt, RejoinAt time.Duration
}

// DefaultFederation is a compact three-part federation study.
func DefaultFederation(seed int64) FederationConfig {
	return FederationConfig{
		Seed:     seed,
		Objects:  8,
		MinSize:  256 * 1024,
		MaxSize:  8 * MB,
		ErasureK: 3,
		ErasureN: 5,
		Replicas: 2,
		Clients:  2,
		Files:    10,
		Accesses: 80,
		MeanGap:  50 * time.Millisecond,
		KillAt:   400 * time.Millisecond,
		RejoinAt: 1500 * time.Millisecond,
	}
}

// FrontierRow is one placement policy's outcome over the same catalogue.
type FrontierRow struct {
	// Policy is the BackendPolicy name.
	Policy string
	// Placements counts objects per chosen backend, e.g. "archive:8".
	Placements string
	// Store/Fetch summarise blocking store and read-back latencies.
	Store, Fetch Stats
	// StoreUSD is the modeled first-month bill right after the stores —
	// the quantity CheapestBackend optimizes. USD adds the read-back
	// egress, exposing e.g. the archive tier's expensive reads.
	StoreUSD, USD float64
}

// RedundancyRow is one redundancy scheme's replay outcome under the
// scripted holder crash.
type RedundancyRow struct {
	Mode string
	// Attempts/Failures count replayed fetches.
	Attempts    int
	Failures    int
	SuccessRate float64
	// Fetch summarises successful fetch latencies.
	Fetch Stats
	// DataBytes is the catalogue payload; RedundantBytes the extra bytes
	// the scheme parks beyond each primary copy (whole copies, or n coded
	// shards of ceil(size/k)); Overhead their ratio.
	DataBytes      int64
	RedundantBytes int64
	Overhead       float64
	// Post-crash fault-layer counters, cluster-wide.
	Repairs          int64
	ReplicasRestored int64
	ShardsPlaced     int64
	ShardsRestored   int64
	Reconstructs     int64
}

// FederationResult is the combined study outcome.
type FederationResult struct {
	// Identical reports the zero-config identity check: a testbed with
	// archive+metro attached but federation off replays the same workload
	// in exactly the same virtual time as the plain single-backend build.
	Identical bool
	// Mismatch describes the first divergence when Identical is false.
	Mismatch   string
	Frontier   []FrontierRow
	Redundancy []RedundancyRow
}

// extraBackends are the non-default federation members.
func extraBackends() []cloudsim.BackendProfile {
	return []cloudsim.BackendProfile{cloudsim.ArchiveProfile(), cloudsim.MetroProfile()}
}

// RunFederation runs the three-part federation study.
func RunFederation(cfg FederationConfig) (_ *FederationResult, err error) {
	defer catch(&err)
	res := &FederationResult{}
	res.Identical, res.Mismatch = federationIdentity(cfg)
	// One pinned run per backend charts the raw frontier, then the three
	// optimizers.
	for _, pol := range []policy.BackendPolicy{
		policy.PinnedBackend{Backend: "s3"},
		policy.PinnedBackend{Backend: "archive"},
		policy.PinnedBackend{Backend: "metro"},
		policy.CheapestBackend{},
		policy.FastestBackend{},
		policy.MostDurableBackend{},
	} {
		res.Frontier = append(res.Frontier, must(runFrontierPolicy(cfg, pol)))
	}

	tr := must(trace.Generate(trace.Config{
		Seed:     cfg.Seed,
		Clients:  cfg.Clients,
		Files:    cfg.Files,
		Accesses: cfg.Accesses,
		MinSize:  cfg.MinSize,
		MaxSize:  cfg.MaxSize,
		MeanGap:  cfg.MeanGap,
		// Fetch-only beyond the seeding stores: the redundancy question is
		// purely about reads surviving the holder crash.
	}))
	arms := []struct {
		name string
		opts cluster.Options
	}{
		{
			name: fmt.Sprintf("replicas=%d", cfg.Replicas),
			opts: cluster.Options{
				Seed:     cfg.Seed,
				Netbooks: 2 + cfg.Clients + 2,
				Config:   core.Config{ErasureK: 1, ErasureN: cfg.Replicas, Fallback: true, Repair: true},
			},
		},
		{
			name: fmt.Sprintf("erasure %d-of-%d", cfg.ErasureK, cfg.ErasureN),
			opts: cluster.Options{
				Seed:     cfg.Seed,
				Netbooks: 2 + cfg.Clients + 2,
				Config:   core.Config{Fallback: true, Repair: true, ErasureK: cfg.ErasureK, ErasureN: cfg.ErasureN},
			},
		},
	}
	for _, arm := range arms {
		res.Redundancy = append(res.Redundancy, runRedundancyArm(cfg, tr, arm.name, arm.opts))
	}
	return res, nil
}

// federationIdentity replays one store+fetch workload on a plain testbed
// and on one with archive+metro attached with a nil core.Config.Backend,
// and compares the virtual-time samples exactly.
func federationIdentity(cfg FederationConfig) (bool, string) {
	plain := federationIdentityArm(cfg, nil)
	attached := federationIdentityArm(cfg, extraBackends())
	if len(plain) != len(attached) {
		return false, fmt.Sprintf("sample count %d vs %d", len(plain), len(attached))
	}
	for i := range plain {
		if plain[i] != attached[i] {
			return false, fmt.Sprintf("sample %d: %v vs %v", i, plain[i], attached[i])
		}
	}
	return true, ""
}

// federationIdentityArm stores a small size ladder from the desktop
// under the default policy and fetches each object back from a netbook,
// returning every operation's virtual duration.
func federationIdentityArm(cfg FederationConfig, backends []cloudsim.BackendProfile) []time.Duration {
	var samples []time.Duration
	check(scenario{
		name: "federation identity",
		opts: cluster.Options{Seed: cfg.Seed, Netbooks: 2, Backends: backends},
		setup: func(e *env) {
			sess := e.openEach(e.Desktop, e.Netbooks[1])
			writer, reader := sess[0], sess[1]
			for i, size := range []int64{cfg.MinSize, 1 * MB, 4 * MB, cfg.MaxSize} {
				name := fmt.Sprintf("fed/ident-%d", i)
				stored := put(writer, name, "blob", nil, size, blocking).Total
				t0 := e.V.Now()
				must(reader.FetchObject(name))
				samples = append(samples, stored, e.V.Now().Sub(t0))
			}
		},
	}.run())
	return samples
}

// runFrontierPolicy stores the catalogue to the cloud under one
// placement policy, reads it back, and totals the bill.
func runFrontierPolicy(cfg FederationConfig, pol policy.BackendPolicy) (_ FrontierRow, err error) {
	defer catch(&err)
	row := FrontierRow{Policy: pol.Name()}
	placed := map[string]int{}
	var stores, fetches []time.Duration
	check(scenario{
		name: "federation frontier " + pol.Name(),
		opts: cluster.Options{
			Seed:     cfg.Seed,
			Netbooks: 2,
			Backends: extraBackends(),
			Config:   core.Config{Backend: pol},
		},
		setup: func(e *env) {
			sess := e.open(e.Desktop)
			// Every store is forced to the cloud tier so the backend policy —
			// not the local/peer ladder — decides placement.
			for i := 0; i < cfg.Objects; i++ {
				size := cfg.MinSize
				if cfg.Objects > 1 {
					size += (cfg.MaxSize - cfg.MinSize) * int64(i) / int64(cfg.Objects-1)
				}
				stores = append(stores, put(sess, fmt.Sprintf("fed/obj-%02d", i), "blob", nil, size, remote).Total)
			}
			for _, b := range e.Home.Backends() {
				row.StoreUSD += b.Spend().USD
			}
			for i := 0; i < cfg.Objects; i++ {
				t0 := e.V.Now()
				fr := must(sess.FetchObject(fmt.Sprintf("fed/obj-%02d", i)))
				fetches = append(fetches, e.V.Now().Sub(t0))
				backend := fr.Meta.Backend
				if backend == "" {
					backend = e.Cloud.Name()
				}
				placed[backend]++
			}
		},
		fold: func(e *env) {
			for _, b := range e.Home.Backends() {
				row.USD += b.Spend().USD
			}
		},
	}.run())
	row.Store = Summarize(stores)
	row.Fetch = Summarize(fetches)
	names := make([]string, 0, len(placed))
	for name := range placed {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, placed[name]))
	}
	row.Placements = strings.Join(parts, " ")
	return row, nil
}

// runRedundancyArm seeds the catalogue at a victim netbook, crashes it
// mid-replay, rejoins it empty, and measures fetch availability plus the
// scheme's storage overhead.
func runRedundancyArm(cfg FederationConfig, tr *trace.Trace, name string, opts cluster.Options) RedundancyRow {
	row := RedundancyRow{Mode: name}
	// n pieces of ⌈size/k⌉ bytes each: whole copies at k = 1.
	k, n := int64(opts.Config.ErasureK), int64(opts.Config.ErasureN)
	for _, f := range tr.Files {
		row.DataBytes += f.Size
		row.RedundantBytes += n * ((f.Size + k - 1) / k)
	}
	if row.DataBytes > 0 {
		row.Overhead = float64(row.RedundantBytes) / float64(row.DataBytes)
	}
	check(replay("federation redundancy "+name, opts, tr, cfg.Clients, crashRejoin(cfg.KillAt, cfg.RejoinAt), func(e *env, samples [][]fetchSample) {
		row.Attempts, row.Failures, row.SuccessRate, row.Fetch, _ = tally(samples)
		for _, n := range e.Home.Nodes() {
			st := n.OpStats()
			row.Repairs += st.ObjectsRepaired
			row.ReplicasRestored += st.ReplicasRestored
			row.ShardsPlaced += st.ShardsPlaced
			row.ShardsRestored += st.ShardsRestored
			row.Reconstructs += st.ShardReconstructs
		}
	}))
	return row
}

// FrontierRowFor returns the named policy's frontier row, or false.
func (r *FederationResult) FrontierRowFor(name string) (FrontierRow, bool) {
	for _, row := range r.Frontier {
		if row.Policy == name {
			return row, true
		}
	}
	return FrontierRow{}, false
}

// RedundancyRowFor returns the named scheme's row, or false.
func (r *FederationResult) RedundancyRowFor(name string) (RedundancyRow, bool) {
	for _, row := range r.Redundancy {
		if row.Mode == name {
			return row, true
		}
	}
	return RedundancyRow{}, false
}

// Tables renders the frontier and redundancy comparisons.
func (r *FederationResult) Tables() []Table {
	frontier := Table{
		Title:   fmt.Sprintf("Federated backends: policy frontier (zero-config identical: %v)", r.Identical),
		Headers: []string{"Policy", "Placements", "StoreMean(ms)", "FetchMean(ms)", "Store$/mo", "+Reads$"},
	}
	for _, row := range r.Frontier {
		frontier.Rows = append(frontier.Rows, []string{
			row.Policy,
			row.Placements,
			Millis(row.Store.Mean),
			Millis(row.Fetch.Mean),
			fmt.Sprintf("%.6f", row.StoreUSD),
			fmt.Sprintf("%.6f", row.USD),
		})
	}
	redundancy := Table{
		Title:   "Redundancy under churn: whole-copy replication vs erasure coding",
		Headers: []string{"Scheme", "Attempts", "Failures", "Success(%)", "FetchMean(ms)", "Overhead(x)", "Repairs", "Restored", "Reconstructs"},
	}
	for _, row := range r.Redundancy {
		restored := row.ReplicasRestored + row.ShardsRestored
		redundancy.Rows = append(redundancy.Rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Attempts),
			fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%.1f", row.SuccessRate),
			Millis(row.Fetch.Mean),
			fmt.Sprintf("%.2f", row.Overhead),
			fmt.Sprintf("%d", row.Repairs),
			fmt.Sprintf("%d", restored),
			fmt.Sprintf("%d", row.Reconstructs),
		})
	}
	return []Table{frontier, redundancy}
}
