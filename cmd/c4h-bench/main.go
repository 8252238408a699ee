// Command c4h-bench regenerates the paper's evaluation (§V): every table
// and figure plus the design-choice ablations, printed as aligned text
// tables. Experiments run on the deterministic virtual-time testbed, so
// the full evaluation completes in seconds.
//
// Usage:
//
//	c4h-bench [-exp all|fig4|table1|fig5|fig6|split|fig7|fig8|ablations|scale|scaleup|computescale|availability|federation|hotpath|cityscale] [-seed 2011]
//	          [-workers N] [-nodes 1000,10000,100000] [-regions 8]
//	          [-cpuprofile f] [-memprofile f] [-trace f]
//
// cityscale is excluded from -exp all: its default sweep builds a
// 100,000-node overlay and is meant to be invoked deliberately, e.g.
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

	"cloud4home/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run (all, fig4, table1, fig5, fig6, split, fig7, fig8, ablations, scale, scaleup, computescale, availability, federation, hotpath)")
		seed       = flag.Int64("seed", 2011, "simulation seed")
		workers    = flag.Int("workers", 1, "host worker goroutines for scale-up sweeps (results identical at any count)")
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

	err := run(*exp, *seed, *workers, *nodes, *regions)

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

func run(exp string, seed int64, workers int, nodes string, regions int) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	// Deliberately not part of "all": the default sweep tops out at a
	// 100,000-node city.
	if exp == "cityscale" {
		cfg := experiments.DefaultCityScale(seed)
		if nodes != "" {
			cfg.Nodes = cfg.Nodes[:0]
			for _, part := range strings.Split(nodes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || n <= 0 {
					return fmt.Errorf("bad -nodes element %q", part)
				}
				cfg.Nodes = append(cfg.Nodes, n)
			}
		}
		cfg.Regions = regions
		res, err := experiments.RunCityScale(cfg)
		if err != nil {
			return err
		}
		printTable(res.Table())
		return nil
	}

	if want("fig4") {
		res, err := experiments.RunFig4(experiments.DefaultFig4(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("table1") {
		res, err := experiments.RunTable1(experiments.DefaultTable1(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("fig5") {
		res, err := experiments.RunFig5(experiments.DefaultFig5(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		size, peak := res.Peak()
		fmt.Printf("peak: %.2f MB/s at %d MB objects (paper: ≈20 MB optimum)\n\n",
			peak, size/experiments.MB)
		ran = true
	}
	if want("fig6") {
		res, err := experiments.RunFig6(experiments.DefaultFig6(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("split") {
		res, err := experiments.RunSplit(experiments.DefaultSplit(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("fig7") {
		res, err := experiments.RunFig7(experiments.DefaultFig7(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("fig8") {
		res, err := experiments.RunFig8(experiments.DefaultFig8(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("scale") {
		res, err := experiments.RunScale(experiments.DefaultScale(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("scaleup") {
		cfg := experiments.DefaultScaleUp(seed)
		cfg.Workers = workers
		res, err := experiments.RunScaleUp(cfg)
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("computescale") {
		res, err := experiments.RunComputeScaleUp(experiments.DefaultComputeScaleUp(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("availability") {
		res, err := experiments.RunAvailability(experiments.DefaultAvailability(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("federation") {
		res, err := experiments.RunFederation(experiments.DefaultFederation(seed))
		if err != nil {
			return err
		}
		for _, t := range res.Tables() {
			printTable(t)
		}
		if !res.Identical {
			return fmt.Errorf("federation: zero-config run diverged: %s", res.Mismatch)
		}
		ran = true
	}
	if want("hotpath") {
		res, err := experiments.RunHotPath(experiments.DefaultHotPath(seed))
		if err != nil {
			return err
		}
		printTable(res.Table())
		ran = true
	}
	if want("ablations") {
		kvRes, err := experiments.RunAblationKVCache(seed)
		if err != nil {
			return err
		}
		printTable(kvRes.Table())
		repl, err := experiments.RunAblationReplication(seed)
		if err != nil {
			return err
		}
		printTable(repl.Table())
		blk, err := experiments.RunAblationBlocking(seed)
		if err != nil {
			return err
		}
		printTable(blk.Table())
		pg, err := experiments.RunAblationPageSize(seed)
		if err != nil {
			return err
		}
		printTable(pg.Table())
		dec, err := experiments.RunAblationDecision(seed)
		if err != nil {
			return err
		}
		printTable(dec.Table())
		meta, err := experiments.RunAblationMetadata(seed)
		if err != nil {
			return err
		}
		printTable(meta.Table())
		dc, err := experiments.RunAblationDataCache(seed)
		if err != nil {
			return err
		}
		printTable(dc.Table())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func printTable(t experiments.Table) {
	fmt.Println(t.Render())
	fmt.Println(strings.Repeat("=", 72))
}
