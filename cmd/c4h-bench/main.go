// Command c4h-bench regenerates the paper's evaluation (§V): every table
// and figure plus the design-choice ablations, printed as aligned text
// tables. Experiments run on the deterministic virtual-time testbed, so
// the full evaluation completes in seconds.
//
// Usage:
//
//	c4h-bench [-exp all|<name>|ablations] [-seed 2011]
//	          [-nodes 1000,10000,100000] [-regions 8]
//	          [-cpuprofile f] [-memprofile f] [-trace f]
//
// The names are experiments.Evaluation's; -h lists them. cityscale is
// excluded from -exp all: its default sweep builds a 100,000-node
// overlay and is meant to be invoked deliberately, e.g.
// `c4h-bench -exp cityscale -nodes 10000`.
//
// The profiling flags write standard Go profiles of the run for
// `go tool pprof` / `go tool trace`; see DESIGN.md ("Hot-path
// performance") for how to read them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"cloud4home/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: "+strings.Join(selectors(), ", "))
		seed       = flag.Int64("seed", 2011, "simulation seed")
		nodes      = flag.String("nodes", "", "cityscale only: comma-separated node counts (default 1000,10000,100000)")
		regions    = flag.Int("regions", 0, "cityscale only: super-peer regions for the aggregation cell (default 8)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		tracefile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer trace.Stop()
	}

	err := run(*exp, *seed, *nodes, *regions)

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			log.Fatalf("memprofile: %v", merr)
		}
		runtime.GC() // flush dead objects so the profile shows live + cumulative allocs
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			log.Fatalf("memprofile: %v", merr)
		}
		f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
}

// selectors are the values -exp accepts, in print order.
func selectors() []string {
	out := []string{"all"}
	seen := map[string]bool{}
	for _, e := range experiments.Evaluation(experiments.CityScaleConfig{}) {
		for _, name := range []string{e.Group, e.Name} {
			if name != "" && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

func run(exp string, seed int64, nodes string, regions int) error {
	city := experiments.CityScaleConfig{Regions: regions, Host: time.Now}
	if nodes != "" {
		for _, part := range strings.Split(nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -nodes element %q", part)
			}
			city.Nodes = append(city.Nodes, n)
		}
	}
	ran := false
	for _, e := range experiments.Evaluation(city) {
		if !(exp == e.Name || exp == e.Group || exp == "all" && !e.OnDemand) {
			continue
		}
		out, err := e.Run(seed)
		for _, t := range out.Tables {
			fmt.Println(t.Render())
			fmt.Println(strings.Repeat("=", 72))
		}
		if out.Note != "" {
			fmt.Printf("%s\n\n", out.Note)
		}
		if err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
