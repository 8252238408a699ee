package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
)

// Table1Config parameterises the fetch cost-breakdown experiment.
type Table1Config struct {
	Seed  int64
	Sizes []int64
	Reps  int
}

// DefaultTable1 matches the paper's sweep.
func DefaultTable1(seed int64) Table1Config {
	return Table1Config{
		Seed:  seed,
		Sizes: []int64{1 * MB, 2 * MB, 5 * MB, 10 * MB, 20 * MB, 50 * MB, 100 * MB},
		Reps:  5,
	}
}

// Table1Row is one size's cost breakdown.
type Table1Row struct {
	Size        int64
	Total       Stats
	InterNode   Stats
	InterDomain Stats
	DHTLookup   Stats
}

// Table1Result reproduces Table I: "Home cloud fetches: cost analysis" —
// total fetch latency decomposed into inter-node transfer, inter-domain
// (guest↔dom0) transfer, and the DHT metadata lookup.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 executes the experiment: objects are stored on one node and
// fetched from another, so every fetch pays the full inter-node path.
func RunTable1(cfg Table1Config) (_ *Table1Result, err error) {
	defer catch(&err)
	res := &Table1Result{}
	check(scenario{name: "table1", opts: cluster.Options{Seed: cfg.Seed}, setup: func(e *env) {
		sess := e.openEach(e.Netbooks[0], e.Netbooks[1])
		producer, consumer := sess[0], sess[1]
		for _, size := range cfg.Sizes {
			var total, interNode, interDomain, lookup []time.Duration
			for rep := 0; rep < cfg.Reps; rep++ {
				name := fmt.Sprintf("table1/%d-%d", size, rep)
				put(producer, name, "blob", nil, size, blocking)
				fb := must(consumer.FetchObject(name)).Breakdown
				total = append(total, fb.Total)
				interNode = append(interNode, fb.InterNode)
				interDomain = append(interDomain, fb.InterDomain)
				lookup = append(lookup, fb.DHTLookup)
			}
			res.Rows = append(res.Rows, Table1Row{
				Size:        size,
				Total:       Summarize(total),
				InterNode:   Summarize(interNode),
				InterDomain: Summarize(interDomain),
				DHTLookup:   Summarize(lookup),
			})
		}
	}}.run())
	return res, nil
}

// Table renders the result in the paper's Table I layout (milliseconds).
func (r *Table1Result) Table() Table {
	t := Table{
		Title:   "Table I: Home cloud fetches: cost analysis (ms)",
		Headers: []string{"FileSize(MB)", "Total(ms)", "InterNode(ms)", "InterDomain(ms)", "DHTLookup(ms)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Size/MB),
			Millis(row.Total.Mean),
			Millis(row.InterNode.Mean),
			Millis(row.InterDomain.Mean),
			Millis(row.DHTLookup.Mean),
		})
	}
	return t
}
