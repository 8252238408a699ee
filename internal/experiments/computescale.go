package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/machine"
	"cloud4home/internal/services"
)

// ComputeScaleUpConfig parameterises the concurrent compute-plane study:
// a netbook requests face recognition on objects it holds, the decision
// routes execution to one of two equal desktops, and the plane is swept
// from the paper's sequential behaviour through sharded kernels,
// move/execute overlap, and speculative dual placement.
type ComputeScaleUpConfig struct {
	Seed int64
	// Workers sweeps the per-node worker-pool widths for the sharded
	// modes (the sequential baseline runs once).
	Workers []int
	// Requests is the batch size per phase (clean and degraded).
	Requests int
	// InputSize per request object.
	InputSize int64
}

// DefaultComputeScaleUp sweeps 1, 2 and 4 workers over 12 MB inputs —
// frec at 3.5 GHz-s/MB gives 42 GHz-s of work per request.
func DefaultComputeScaleUp(seed int64) ComputeScaleUpConfig {
	return ComputeScaleUpConfig{
		Seed:      seed,
		Workers:   []int{1, 2, 4},
		Requests:  4,
		InputSize: 12 * MB,
	}
}

// ComputeScaleUpRow is one (mode, workers) measurement: a clean batch on
// idle desktops, then a degraded batch with one desktop saturated behind
// stale monitor records (the estimate mispredicts, so only the
// speculative mode recovers).
type ComputeScaleUpRow struct {
	Mode    string
	Workers int
	// Clean/Degraded summarise per-request process latencies.
	Clean, Degraded Stats
	// CleanWall/DegradedWall are the batch wall times.
	CleanWall, DegradedWall time.Duration
	// Requester compute-plane counters accumulated over both batches.
	ShardsExecuted int64
	OverlapSaved   time.Duration
	SpecLaunches   int64
	SpecWins       int64
	SpecCancels    int64
}

// ComputeScaleUpResult compares the compute-plane modes.
type ComputeScaleUpResult struct {
	Rows []ComputeScaleUpRow
}

// RunComputeScaleUp executes the sweep. Each cell builds a fresh testbed
// with a second desktop so the decision has an equal runner-up, stores
// the request objects on the requesting netbook, and runs the two
// batches back to back.
func RunComputeScaleUp(cfg ComputeScaleUpConfig) (_ *ComputeScaleUpResult, err error) {
	defer catch(&err)
	// The sequential baseline is the zero config, so it runs once.
	res := &ComputeScaleUpResult{Rows: []ComputeScaleUpRow{
		runComputeScaleUpCell(cfg, "sequential", core.ComputePlaneConfig{}, cfg.Workers[0]),
	}}
	for _, mode := range []struct {
		name string
		cp   core.ComputePlaneConfig
	}{
		{"sharded", core.ComputePlaneConfig{}},
		{"sharded+overlap", core.ComputePlaneConfig{Overlap: true}},
		{"sharded+overlap+spec", core.ComputePlaneConfig{Overlap: true, Speculation: true}},
	} {
		for _, w := range cfg.Workers {
			cp := mode.cp
			cp.Workers = w
			res.Rows = append(res.Rows, runComputeScaleUpCell(cfg, mode.name, cp, w))
		}
	}
	return res, nil
}

func runComputeScaleUpCell(cfg ComputeScaleUpConfig, name string, cp core.ComputePlaneConfig, w int) ComputeScaleUpRow {
	row := ComputeScaleUpRow{Mode: name, Workers: w}
	check(scenario{
		name: fmt.Sprintf("compute scale-up %s workers=%d", name, w),
		opts: cluster.Options{Seed: cfg.Seed, ComputePlane: cp},
		setup: func(e *env) {
			// A second, equal desktop: the decision's runner-up and the
			// speculative hedge's refuge when the first degrades.
			desk2 := must(e.Home.AddNode(core.NodeConfig{
				Addr:           "desktop2:9000",
				Machine:        cluster.DesktopSpec(),
				MandatoryBytes: 16 * cluster.GB,
				VoluntaryBytes: 16 * cluster.GB,
				ComputePlane:   cp,
			}))
			check(e.Desktop.DeployService(services.FaceRecognize(), "performance"))
			check(desk2.DeployService(services.FaceRecognize(), "performance"))
			check(e.PublishResources())
			check(desk2.Monitor().PublishOnce())

			requester := e.Netbooks[1]
			sess := e.open(requester)
			store := func(prefix string) []string {
				names := make([]string, cfg.Requests)
				for i := range names {
					// The names are identical across cells (each cell is a
					// fresh testbed): object names feed the DHT key hashes,
					// and differing hashes would drift the simulated jitter
					// between cells that must be bit-comparable.
					names[i] = fmt.Sprintf("cscale/%s-%d.bin", prefix, i)
					put(sess, names[i], "image", nil, cfg.InputSize, blocking)
				}
				return names
			}
			// settle waits for the cancelled speculative loser to drain as a
			// registered clock worker. Node.Flush would park the caller, and
			// with background hogs parked in a long Sleep the clock would
			// jump to their wake-up the moment the last runnable worker
			// parks — polling the counters keeps the requester runnable so
			// virtual time only advances with the loser.
			settle := func() {
				if !cp.Speculation {
					return
				}
				deadline := e.V.Now().Add(time.Hour)
				for e.V.Now().Before(deadline) {
					st := requester.OpStats()
					if st.SpecCancels >= st.SpecLaunches {
						return
					}
					e.V.Sleep(time.Millisecond)
				}
			}
			batch := func(names []string) (Stats, time.Duration) {
				var durs []time.Duration
				start := e.V.Now()
				for _, n := range names {
					s0 := e.V.Now()
					must(sess.Process(n, "frec", services.FaceRecognizeID))
					durs = append(durs, e.V.Now().Sub(s0))
					// Settle the loser before the next request so every
					// request sees the same starting state.
					settle()
				}
				return Summarize(durs), e.V.Now().Sub(start)
			}

			row.Clean, row.CleanWall = batch(store("clean"))

			// Degrade the first desktop AFTER its record was published: four
			// single-strand hogs halve every strand's core share, and the
			// stale record keeps the decision pointing at it. They outlast
			// the batch; the runner joins them after the measurement.
			deg := store("deg")
			for i := 0; i < 4; i++ {
				// A hog that fails admission leaves the machine undegraded
				// and would silently invalidate the degraded phase.
				e.background.spawn(e.V, func() { must(e.Desktop.Machine().Exec(machine.Task{CPUGHzSec: 2000, Parallelism: 1})) })
			}
			e.V.Sleep(time.Millisecond) // hogs admit themselves
			row.Degraded, row.DegradedWall = batch(deg)

			st := requester.OpStats()
			row.ShardsExecuted = st.ShardsExecuted
			row.OverlapSaved = st.OverlapSaved
			row.SpecLaunches = st.SpecLaunches
			row.SpecWins = st.SpecWins
			row.SpecCancels = st.SpecCancels
		},
	}.run())
	return row
}

// Row returns the (mode, workers) measurement, or false.
func (r *ComputeScaleUpResult) Row(mode string, workers int) (ComputeScaleUpRow, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode && row.Workers == workers {
			return row, true
		}
	}
	return ComputeScaleUpRow{}, false
}

// Table renders the sweep.
func (r *ComputeScaleUpResult) Table() Table {
	t := Table{
		Title: "Concurrent compute plane: process latency vs workers (12 MB frec)",
		Headers: []string{"Mode", "Workers", "Clean(s)", "Degraded(s)",
			"Shards", "OverlapSaved(s)", "SpecW/L"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Workers),
			Seconds(row.Clean.Mean),
			Seconds(row.Degraded.Mean),
			fmt.Sprintf("%d", row.ShardsExecuted),
			Seconds(row.OverlapSaved),
			fmt.Sprintf("%d/%d", row.SpecWins, row.SpecLaunches-row.SpecWins),
		})
	}
	return t
}
