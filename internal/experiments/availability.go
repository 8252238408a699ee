package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/netsim"
	"cloud4home/internal/trace"
)

// AvailabilityConfig parameterises the churn study: a fetch trace replayed
// while a scripted fault schedule crashes the payload holder mid-replay
// and rejoins it (empty) later. Three fault-layer modes run over the same
// workload and the same schedule: the paper's fail-on-loss behaviour,
// the fallback ladder, and fallback plus post-crash payload repair.
type AvailabilityConfig struct {
	Seed int64
	// Clients are concurrent readers, each replaying its own slice of the
	// trace from its own netbook.
	Clients int
	// Files is the catalogue size; every file is seeded at the victim node
	// before the replay starts, so the crash hits every primary copy.
	Files int
	// Accesses is the total trace operation count.
	Accesses int
	// MinSize/MaxSize bound the uniform file-size band.
	MinSize, MaxSize int64
	// Replicas is the payload replica count (core.Config.ErasureN at ErasureK 1).
	Replicas int
	// MeanGap is the mean inter-arrival time per client.
	MeanGap time.Duration
	// KillAt crashes the victim (netbook 2); RejoinAt brings it back with
	// empty bins. Both are offsets from the replay start.
	KillAt, RejoinAt time.Duration
}

// DefaultAvailability is a compact churn scenario: the kill lands inside
// the replay and the rejoin well before its end.
func DefaultAvailability(seed int64) AvailabilityConfig {
	return AvailabilityConfig{
		Seed:     seed,
		Clients:  2,
		Files:    10,
		Accesses: 80,
		MinSize:  256 * 1024,
		MaxSize:  1 * MB,
		Replicas: 1,
		MeanGap:  50 * time.Millisecond,
		KillAt:   400 * time.Millisecond,
		RejoinAt: 1500 * time.Millisecond,
	}
}

// AvailabilityRow is one fault-layer mode's replay outcome.
type AvailabilityRow struct {
	Mode string
	// Attempts and Failures count replayed fetches; SuccessRate is their
	// ratio in percent.
	Attempts    int
	Failures    int
	SuccessRate float64
	// Fetch summarises successful fetch latencies.
	Fetch Stats
	// RetryCost is the total modeled time burned in failed attempts before
	// the ladder's successful rung (summed FetchBreakdown.Retries).
	RetryCost time.Duration
	// Retries / Repairs / ReplicasRestored are the cluster-wide fault
	// counters after the replay.
	Retries          int64
	Repairs          int64
	ReplicasRestored int64
}

// AvailabilityResult compares the three modes over identical churn.
type AvailabilityResult struct {
	Rows []AvailabilityRow
}

// RunAvailability replays the same fetch trace under the same scripted
// kill/rejoin schedule for each mode. All files are stored by the victim
// netbook, so its crash takes out every primary copy at once; replicas
// land on the desktop (the node with the most voluntary space), which
// survives. Fail-on-loss then fails every post-kill fetch — the rejoined
// node comes back empty — while the fallback ladder keeps serving from
// the replica, and repair additionally restores the replica count and
// promotes a new primary so later fetches stop paying retry cost.
func RunAvailability(cfg AvailabilityConfig) (_ *AvailabilityResult, err error) {
	defer catch(&err)
	tr := must(trace.Generate(trace.Config{
		Seed:     cfg.Seed,
		Clients:  cfg.Clients,
		Files:    cfg.Files,
		Accesses: cfg.Accesses,
		MinSize:  cfg.MinSize,
		MaxSize:  cfg.MaxSize,
		MeanGap:  cfg.MeanGap,
		// StoreFraction 0: beyond each file's forced initial store (which
		// the replay skips — seeding happens at the victim instead), the
		// trace is fetch-only, so the availability question is purely about
		// reads surviving the holder crash.
	}))
	res := &AvailabilityResult{}
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"faults-off", core.Config{ErasureK: 1, ErasureN: cfg.Replicas}},
		{"fallback", core.Config{ErasureK: 1, ErasureN: cfg.Replicas, Fallback: true}},
		{"fallback+repair", core.Config{ErasureK: 1, ErasureN: cfg.Replicas, Fallback: true, Repair: true}},
	} {
		row := AvailabilityRow{Mode: mode.name}
		check(replay("availability "+mode.name, cluster.Options{
			Seed:     cfg.Seed,
			Netbooks: 2 + cfg.Clients,
			Config:   mode.cfg,
		}, tr, cfg.Clients, crashRejoin(cfg.KillAt, cfg.RejoinAt), func(e *env, samples [][]fetchSample) {
			row.Attempts, row.Failures, row.SuccessRate, row.Fetch, row.RetryCost = tally(samples)
			for _, n := range e.Home.Nodes() {
				st := n.OpStats()
				row.Retries += st.FetchRetries
				row.Repairs += st.ObjectsRepaired
				row.ReplicasRestored += st.ReplicasRestored
			}
		}))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fetchSample is one replayed fetch: the trace file, the virtual latency,
// the time burned in failed rungs before the one that served it, and
// whether it failed — a lost fetch is the datum here, not a run error.
type fetchSample struct {
	file       int
	d, retries time.Duration
	failed     bool
}

// tally counts a replay's attempts and failures, and summarises the
// latencies and retry cost of the fetches that succeeded.
func tally(samples [][]fetchSample) (attempts, failures int, successRate float64, fetch Stats, retryCost time.Duration) {
	var ok []time.Duration
	for _, cs := range samples {
		for _, s := range cs {
			attempts++
			if s.failed {
				failures++
				continue
			}
			ok = append(ok, s.d)
			retryCost += s.retries
		}
	}
	if attempts > 0 {
		successRate = 100 * float64(attempts-failures) / float64(attempts)
	}
	return attempts, failures, successRate, Summarize(ok), retryCost
}

// crashRejoin is the churn script both churn studies run: the victim
// crashes at kill and rejoins, empty, at rejoin, offsets from the
// replay's start.
func crashRejoin(kill, rejoin time.Duration) func(victim string) netsim.FaultSchedule {
	return func(victim string) netsim.FaultSchedule {
		return netsim.FaultSchedule{Events: []netsim.FaultEvent{
			{At: kill, Node: victim, Kind: netsim.FaultCrash},
			{At: rejoin, Node: victim, Kind: netsim.FaultRejoin},
		}}
	}
}

// replay is the one crash/rejoin trace replay: availability's modes,
// federation's redundancy arms and the fault-replay determinism test all
// fold its samples. Every file of tr is seeded at netbook 1 (netbook 0 is
// the cloud gateway), which schedule crashes and rejoins while client c
// replays trace client c's fetches at their trace times from netbook
// 2 + c, starting (c+1) × 500 µs in. fold sees each client's samples in
// replay order.
func replay(name string, opts cluster.Options, tr *trace.Trace, clients int, schedule func(victim string) netsim.FaultSchedule, fold func(e *env, samples [][]fetchSample)) error {
	const victim = 1
	samples := make([][]fetchSample, clients)
	return scenario{
		name: name,
		opts: opts,
		setup: func(e *env) {
			writer := e.open(e.Netbooks[victim])
			for _, f := range tr.Files {
				put(writer, f.Name, f.Type, f.Tags, f.Size, blocking)
			}
		},
		clients: clients,
		at:      func(e *env, c int) *core.Node { return e.Netbooks[victim+1+c] },
		start:   func(c int) time.Duration { return time.Duration(c+1) * 500 * time.Microsecond },
		client: func(e *env, c int, sess *core.Session) {
			for _, a := range tr.Accesses {
				if a.Client != c || a.Kind != trace.OpFetch {
					continue
				}
				if wait := e.start.Add(a.At).Sub(e.V.Now()); wait > 0 {
					e.V.Sleep(wait)
				}
				s0 := e.V.Now()
				fr, err := sess.FetchObject(tr.Files[a.File].Name)
				samples[c] = append(samples[c], fetchSample{
					file: a.File, d: e.V.Now().Sub(s0), retries: fr.Breakdown.Retries, failed: err != nil,
				})
			}
		},
		faults: func(e *env) netsim.FaultSchedule { return schedule(e.Netbooks[victim].Addr()) },
		fold:   func(e *env) { fold(e, samples) },
	}.run()
}

// Row returns the named mode's measurement, or false.
func (r *AvailabilityResult) Row(mode string) (AvailabilityRow, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode {
			return row, true
		}
	}
	return AvailabilityRow{}, false
}

// Table renders the comparison.
func (r *AvailabilityResult) Table() Table {
	t := Table{
		Title:   "Availability under churn: trace replay with a scripted holder crash",
		Headers: []string{"Mode", "Attempts", "Failures", "Success(%)", "FetchMean(ms)", "RetryCost(ms)", "Repairs", "ReplicasRestored"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Attempts),
			fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%.1f", row.SuccessRate),
			Millis(row.Fetch.Mean),
			Millis(row.RetryCost),
			fmt.Sprintf("%d", row.Repairs),
			fmt.Sprintf("%d", row.ReplicasRestored),
		})
	}
	return t
}
