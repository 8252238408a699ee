//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runKey identifies runs that must agree: same workload, seed and length.
type runKey struct {
	Workload string
	Seed     int64
	Seconds  float64
}

// runSet is every untraced run of one key in a result file.
type runSet struct {
	digests []string
	values  map[string][]float64
	bad     bool // a run was incorrect or had failed ops
}

// readRuns parses a file of c4h-perf output: pairs of lines, the run's
// info then its result. Traced runs carry no bounded metric and are
// skipped.
func readRuns(path string) (map[runKey]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[runKey]*runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	var info *runInfo
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if info == nil {
			info = &runInfo{}
			if err := json.Unmarshal([]byte(line), info); err != nil || info.Workload == "" {
				return nil, fmt.Errorf("%s:%d: want a run-info line", path, n)
			}
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			return nil, fmt.Errorf("%s:%d: want a result line", path, n)
		}
		if info.Trace == 0 {
			k := runKey{info.Workload, info.Seed, info.Seconds}
			rs := runs[k]
			if rs == nil {
				rs = &runSet{values: map[string][]float64{}}
				runs[k] = rs
			}
			rs.digests = append(rs.digests, info.VirtDigest)
			rs.bad = rs.bad || !res.Correct || res.Failed > 0
			for name, v := range res.Metrics {
				rs.values[name] = append(rs.values[name], v.Value)
			}
		}
		info = nil
	}
	return runs, sc.Err()
}

// compareFiles applies the declared bounds to two result sets of the same
// runs: b may be worse than a by no more than each metric's bound (on the
// medians, where a key ran more than once), no run may have failed, and
// the simulated workloads must have produced identical virtual results —
// equal digests and equal client_* metrics.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	ra, err := readRuns(a)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s holds no untraced run", a)
	}
	var rb map[runKey]*runSet
	if err == nil {
		rb, err = readRuns(b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "c4h-perf: compare: %v\n", err)
		return 2
	}
	keys := make([]runKey, 0, len(ra))
	for k := range ra {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Workload != keys[j].Workload {
			return keys[i].Workload < keys[j].Workload
		}
		return keys[i].Seed < keys[j].Seed
	})
	failures := 0
	failf := func(k runKey, format string, args ...any) {
		failures++
		fmt.Fprintf(stdout, "FAIL %s seed %d: %s\n", k.Workload, k.Seed, fmt.Sprintf(format, args...))
	}
	for _, k := range keys {
		sa, sb := ra[k], rb[k]
		if sb == nil {
			failf(k, "missing from %s", b)
			continue
		}
		if sa.bad || sb.bad {
			failf(k, "a run was incorrect or had failed ops")
		}
		simulated := sa.digests[0] != ""
		if simulated {
			for _, d := range append(sa.digests[1:], sb.digests...) {
				if d != sa.digests[0] {
					failf(k, "virt_digest differs: %s vs %s", sa.digests[0], d)
					break
				}
			}
		}
		for _, m := range endToEnd {
			va, vb := median(sa.values[m.Name]), median(sb.values[m.Name])
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			switch {
			case simulated && strings.HasPrefix(m.Name, "client_") && va != vb:
				status = "FAIL (virtual results must be identical)"
				failures++
			case worse > m.Bound:
				status = fmt.Sprintf("FAIL (bound %.0f%%)", 100*m.Bound)
				failures++
			}
			fmt.Fprintf(stdout, "%-16s seed %-4d %-22s %14.4f -> %14.4f  %+7.2f%% worse  %s\n",
				k.Workload, k.Seed, m.Name, va, vb, 100*worse, status)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d check(s) failed\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "all runs agree within the declared bounds")
	return 0
}
