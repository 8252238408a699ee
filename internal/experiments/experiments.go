// Package experiments reproduces every table and figure of the paper's
// evaluation (§V). Each experiment is a scenario, or a sweep of scenarios,
// on a fresh, deterministic testbed (internal/cluster): one runner builds
// it, replays the workload in virtual time and joins it, and the
// experiment returns structured rows plus a rendered text table matching
// the paper's presentation. Evaluation lists them all; the c4h-bench
// binary and the golden test iterate it, and the bench harness
// (bench_test.go) calls the runners directly.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// MB is one megabyte.
const MB = int64(1) << 20

// Experiment is one entry of the evaluation: the name c4h-bench selects
// it by, and how to run it at a seed.
type Experiment struct {
	Name string
	// Group is a second name that selects the entry together with its
	// siblings: the seven ablations answer to "ablations".
	Group string
	// OnDemand keeps the entry out of "all".
	OnDemand bool
	Run      func(seed int64) (Outcome, error)
}

// Outcome is what one run of an Experiment produced.
type Outcome struct {
	// Result is the experiment's result value, as TestGoldenOutputs
	// freezes it.
	Result any
	Tables []Table
	// Note is a line printed after the tables.
	Note string
}

// Evaluation lists every experiment in c4h-bench's print order. city
// shapes the city sweep (zero fields take its defaults); that entry is
// on demand because its default sweep builds a 100 000-home city.
func Evaluation(city CityScaleConfig) []Experiment {
	cityScale := tabled("cityscale", "", func(seed int64) (*CityScaleResult, error) {
		cfg := city
		cfg.Seed = seed
		return RunCityScale(cfg)
	})
	cityScale.OnDemand = true
	return []Experiment{
		tabled("fig4", "", atDefault(RunFig4, DefaultFig4)),
		tabled("table1", "", atDefault(RunTable1, DefaultTable1)),
		{Name: "fig5", Run: func(seed int64) (_ Outcome, err error) {
			defer catch(&err)
			res := must(RunFig5(DefaultFig5(seed)))
			size, peak := res.Peak()
			return Outcome{Result: res, Tables: []Table{res.Table()},
				Note: fmt.Sprintf("peak: %.2f MB/s at %d MB objects (paper: ≈20 MB optimum)", peak, size/MB)}, nil
		}},
		tabled("fig6", "", atDefault(RunFig6, DefaultFig6)),
		tabled("split", "", atDefault(RunSplit, DefaultSplit)),
		tabled("fig7", "", atDefault(RunFig7, DefaultFig7)),
		tabled("fig8", "", atDefault(RunFig8, DefaultFig8)),
		tabled("scale", "", atDefault(RunScale, DefaultScale)),
		tabled("scaleup", "", atDefault(RunScaleUp, DefaultScaleUp)),
		tabled("computescale", "", atDefault(RunComputeScaleUp, DefaultComputeScaleUp)),
		tabled("availability", "", atDefault(RunAvailability, DefaultAvailability)),
		{Name: "federation", Run: func(seed int64) (_ Outcome, err error) {
			defer catch(&err)
			res := must(RunFederation(DefaultFederation(seed)))
			out := Outcome{Result: res, Tables: res.Tables()}
			if !res.Identical {
				return out, fmt.Errorf("federation: zero-config run diverged: %s", res.Mismatch)
			}
			return out, nil
		}},
		tabled("hotpath", "", atDefault(RunHotPath, DefaultHotPath)),
		tabled("kvcache", "ablations", RunAblationKVCache),
		tabled("replication", "ablations", RunAblationReplication),
		tabled("blocking", "ablations", RunAblationBlocking),
		tabled("pagesize", "ablations", RunAblationPageSize),
		tabled("decision", "ablations", RunAblationDecision),
		tabled("metadata", "ablations", RunAblationMetadata),
		tabled("datacache", "ablations", RunAblationDataCache),
		cityScale,
	}
}

// tabled is the entry of an experiment whose result renders as one table.
func tabled[R interface{ Table() Table }](name, group string, run func(seed int64) (R, error)) Experiment {
	return Experiment{Name: name, Group: group, Run: func(seed int64) (Outcome, error) {
		res, err := run(seed)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Result: res, Tables: []Table{res.Table()}}, nil
	}}
}

// atDefault runs an experiment at its default configuration for a seed.
func atDefault[C, R any](run func(C) (R, error), def func(seed int64) C) func(seed int64) (R, error) {
	return func(seed int64) (R, error) { return run(def(seed)) }
}

// Stats summarises a sample of durations.
type Stats struct {
	Mean   time.Duration
	Stdev  time.Duration
	Min    time.Duration
	Max    time.Duration
	Sample int
}

// Summarize computes a duration sample's statistics.
func Summarize(xs []time.Duration) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	var sum float64
	min, max := xs[0], xs[0]
	for _, x := range xs {
		sum += float64(x)
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	mean := sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := float64(x) - mean
		sq += d * d
	}
	return Stats{
		Mean:   time.Duration(mean),
		Stdev:  time.Duration(math.Sqrt(sq / float64(len(xs)))),
		Min:    min,
		Max:    max,
		Sample: len(xs),
	}
}

// Seconds renders a duration with two decimals.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// Millis renders a duration in whole milliseconds.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%d", d.Milliseconds())
}

// Throughput returns bytes/elapsed in MB/s.
func Throughput(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / float64(MB)
}

// Table renders rows as an aligned text table with a title.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Render produces the aligned text form.
func (t Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
