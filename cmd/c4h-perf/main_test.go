//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale runs every workload at a hundredth of its calibrated size.
const smokeScale = 0.01

// TestSmoke is the benchmark's CI hook: every workload, untraced and
// traced, emits every declared metric with a finite value, fails no op,
// passes its payload, kernel and Σ phases ≤ Total checks, and gives the
// same virt_digest on two in-process runs.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			info, res, err := runBenchmark(w, 7, smokeScale, 1, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, info, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}

			out := filepath.Join(t.TempDir(), "spans.json")
			tinfo, tres, err := runBenchmark(w, 7, smokeScale, 1, true, out)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, tinfo, tres, perLayer)
			if tinfo.VirtDigest != info.VirtDigest {
				t.Errorf("virt_digest differs between two runs: %s, %s", info.VirtDigest, tinfo.VirtDigest)
			}
			if (info.VirtDigest == "") != (w.name == "daemon-loopback") {
				t.Errorf("virt_digest %q: only the real-clock workload has none", info.VirtDigest)
			}
			if tinfo.Spans < tres.Attempted-tres.Failed && w.name != "daemon-loopback" {
				t.Errorf("%d spans for %d ops", tinfo.Spans, tres.Attempted)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("span file is not JSON: %v", err)
			}
			if len(doc.TraceEvents) < tinfo.Spans {
				t.Errorf("span file holds %d events for %d spans", len(doc.TraceEvents), tinfo.Spans)
			}
		})
	}
}

func checkRun(t *testing.T, info runInfo, res result, want []metric) {
	t.Helper()
	if !res.Correct {
		t.Errorf("output checks failed: %v", info.Violations)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, declared %q", m.Name, v.Unit, m.Unit)
		}
	}
}

// TestCommandLine drives the binary's own entry point the way the
// benchmark driver does, and feeds two such outputs to -compare.
func TestCommandLine(t *testing.T) {
	run := func() []byte {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "home-trace", "--seed", "3", "--seconds", "0.1", "--trace", "0"}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	a, b := run(), run()
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(last))
	}

	dir := t.TempDir()
	fa, fb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	os.WriteFile(fa, a, 0o644)
	os.WriteFile(fb, b, 0o644)
	// The virtual results of two runs must compare as identical; the host
	// timings of a tenth-of-a-second run are too short to hold to their
	// bounds, so only the digest and client_* lines are asserted here.
	var stdout, stderr bytes.Buffer
	realMain([]string{"-compare", fa, fb}, &stdout, &stderr)
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.Contains(line, "virt_digest") || (strings.Contains(line, "client_") && strings.Contains(line, "FAIL")) {
			t.Errorf("compare: %s", line)
		}
	}
	if !strings.Contains(stdout.String(), "client_read_p50_ms") {
		t.Errorf("compare printed no metric rows:\n%s%s", stdout.String(), stderr.String())
	}

	// A changed virtual result must fail the comparison.
	os.WriteFile(fb, bytes.Replace(b, []byte(`"virt_digest":"`), []byte(`"virt_digest":"x`), 1), 0o644)
	stdout.Reset()
	if code := realMain([]string{"-compare", fa, fb}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "virt_digest differs") {
		t.Errorf("compare accepted differing digests (exit %d):\n%s", code, stdout.String())
	}
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and main.go from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "cmd/c4h-perf" {
		t.Errorf("paths %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in main.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, main.go %q / %q",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in metrics.go", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if doc.EndToEnd[i] != m {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, metrics.go %+v", i, doc.EndToEnd[i], m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in metrics.go", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := doc.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, metrics.go %+v", i, d, m)
		}
	}
}
