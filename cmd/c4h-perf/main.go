//go:build linux

// Command c4h-perf is the repository's performance benchmark: one binary
// that runs a named, fixed workload against the default configuration and
// prints every declared metric, for both of Cloud4Home's clocks — the
// virtual time the simulation reports and the host time it costs to
// produce it — plus the real-TCP c4hd path.
//
// Usage:
//
//	go run ./cmd/c4h-perf -workload <name> -seed <n> [-seconds <s>] [-trace 0|1] [-trace-out spans.json]
//	go run ./cmd/c4h-perf -compare a.jsonl b.jsonl
//
// The last line of standard output is the result object; the line before
// it names the run (workload, seed, sample counts, virt_digest). See
// README.md for every metric's definition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the op counts in the
// workload files take about this long at seed state on a 2-core sandbox,
// and -seconds scales them in proportion.
const runSeconds = 10

var workloads = []workload{
	{
		name:    "home-trace",
		why:     "closed loop, 6 clients, 100k trace accesses on the 6-node testbed + S3: the paper's store/fetch mix; host time in netsim, vclock, monitor, core; kv/overlay idle, no payload bytes",
		setups:  15,
		prepare: prepareHomeTrace,
	},
	{
		name:    "city-meta",
		why:     "closed loop, 1 actor, 200k kv put/get over a 1000-home flat overlay: the metadata plane alone (overlay joins in set-up, kv, overlay.Route, netsim.Message in ops); no data plane, one vclock sleeper",
		setups:  3,
		prepare: prepareCityMeta,
	},
	{
		name:    "home-process",
		why:     "closed loop, 2 clients, 7000 FetchProcess + 1000 stores of materialised 256KB-2MB images: real bytes and kernels (services, objstore copies, xenchan); bypasses netsim RNG and vclock",
		setups:  15,
		prepare: prepareHomeProcess,
	},
	{
		name:    "daemon-loopback",
		why:     "closed loop, 2 TCP connections, each 100 stores, 200 fetches, 100 stats of 16KB objects, kind by kind, on a spawned c4hd: command framing, daemon dispatch, JSON, real sleeps; bypasses simulator speed",
		setups:  3,
		prepare: prepareDaemonLoopback,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is the line before it: what ran, on how many samples each
// percentile rests, and the digest of the virtual results.
type runInfo struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Reads      int      `json:"read_samples"`
	Writes     int      `json:"write_samples"`
	HostS      float64  `json:"measured_host_s"`
	VirtDigest string   `json:"virt_digest"`
	Spans      int      `json:"spans,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

func main() {
	// A signal must not strand a c4hd child.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("c4h-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: home-trace, city-meta, home-process or daemon-loopback")
		seed     = fs.Int64("seed", 1, "seed for the generated inputs (the testbed seed is fixed)")
		seconds  = fs.Float64("seconds", runSeconds, "target length of the measured phase; scales the fixed op counts")
		traced   = fs.Int("trace", 0, "1 repeats the workload with spans on, runs the layer probes and prints the per-layer metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
		compare  = fs.Bool("compare", false, "compare two result files (the remaining arguments) under the declared bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "c4h-perf: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "c4h-perf: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "c4h-perf: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// Nor may a panic unwinding this function: daemon-loopback registers
	// each child it spawns, and reaps it itself on every other path.
	defer killChildren()

	scale := *seconds / runSeconds
	info, res, err := runBenchmark(w, *seed, scale, shrunk(w.setups, scale, 1), *traced == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(stderr, "c4h-perf: %s: %v\n", w.name, err)
		return 1
	}
	info.Seconds = *seconds
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		for _, v := range info.Violations {
			fmt.Fprintf(stderr, "c4h-perf: check failed: %s\n", v)
		}
		return 1
	}
	return 0
}

// runBenchmark sets the workload up setups times, measures it, and on a
// traced run measures it again with spans on and runs the layer probes.
func runBenchmark(w workload, seed int64, scale float64, setups int, traced bool, traceOut string) (runInfo, result, error) {
	info := runInfo{Workload: w.name, Seed: seed}

	setup, err := w.prepare(seed, scale)
	if err != nil {
		return info, result{}, err
	}
	var tb testbed
	defer func() {
		if tb != nil {
			tb.close()
		}
	}()
	build := func() (float64, error) {
		if tb != nil {
			tb.close()
			tb = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		tb, err = setup()
		return time.Since(t0).Seconds(), err
	}

	if traced {
		setups = 1 // setup_s is an untraced metric
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		s, err := build()
		if err != nil {
			return info, result{}, err
		}
		setupTimes = append(setupTimes, s)
	}
	m := &meter{}
	ph, err := tb.run(m, nil)
	if err != nil {
		return info, result{}, err
	}
	if m.cost.ops == 0 {
		return info, result{}, errors.New("measured phase completed no op")
	}

	res := result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]value{}}
	if !traced {
		vals := endToEndValues(median(setupTimes), ph, m.cost)
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
		}
	} else {
		untraced := ph
		if _, err := build(); err != nil {
			return info, result{}, err
		}
		tm := &meter{}
		rec := &recorder{}
		if ph, err = tb.run(tm, rec); err != nil {
			return info, result{}, err
		}
		if ph.digest != untraced.digest {
			ph.violate("tracing changed the virtual results: digest %s, untraced %s", ph.digest, untraced.digest)
		}
		if len(ph.violations) == 0 {
			ph.violations = untraced.violations
		}
		res.Attempted, res.Failed = ph.attempted, ph.failed
		layer := ph.layer
		layer["trace.overhead_pct"] = 100 * (tm.cost.elapsed.Seconds() - m.cost.elapsed.Seconds()) / m.cost.elapsed.Seconds()
		if err := runProbes(tb.env(), scale, layer); err != nil {
			return info, result{}, fmt.Errorf("layer probes: %w", err)
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = value{layer[d.Name], d.Unit}
		}
		info.Spans = rec.count()
		if traceOut != "" {
			if err := rec.writeChrome(traceOut); err != nil {
				return info, result{}, fmt.Errorf("write spans: %w", err)
			}
		}
		m = tm
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			ph.violate("metric %s is not finite", name)
		}
	}
	res.Correct = len(ph.violations) == 0
	if traced {
		info.Trace = 1
	}
	info.Reads, info.Writes = len(ph.reads), len(ph.writes)
	info.HostS = m.cost.elapsed.Seconds()
	info.VirtDigest = ph.digest
	info.Violations = ph.violations
	return info, res, nil
}

// endToEndValues turns one untraced phase into the end-to-end metrics.
func endToEndValues(setupS float64, ph *phase, c hostCost) map[string]float64 {
	cpuPerOp := c.cpuPerOp
	rss := peakRSSMB("self")
	if ph.child != nil {
		cpuPerOp = ph.child.cpu / time.Duration(c.ops)
		rss = ph.child.peakRSSMB
	}
	const mb = 1 << 20
	return map[string]float64{
		"setup_s":             setupS,
		"host_ops_per_s":      c.opsPerSec,
		"host_cpu_us_per_op":  float64(cpuPerOp) / float64(time.Microsecond),
		"host_allocs_per_op":  c.allocsPerOp,
		"host_bytes_per_op":   c.bytesPerOp,
		"host_peak_rss_mb":    rss,
		"client_read_p50_ms":  percentile(ph.reads, 0.50),
		"client_read_p95_ms":  percentile(ph.reads, 0.95),
		"client_write_p50_ms": percentile(ph.writes, 0.50),
		"client_write_p95_ms": percentile(ph.writes, 0.95),
		"client_goodput_mbps": ratio(float64(ph.payloadBytes)/mb, ph.clientElapsed.Seconds()),
	}
}
