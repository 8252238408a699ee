package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
)

// Fig4Config parameterises the home-vs-remote latency experiment.
type Fig4Config struct {
	Seed  int64
	Sizes []int64 // object sizes in bytes (paper: 1..100 MB)
	Reps  int     // repetitions per size per operation
}

// DefaultFig4 matches the paper's sweep.
func DefaultFig4(seed int64) Fig4Config {
	return Fig4Config{
		Seed:  seed,
		Sizes: []int64{1 * MB, 2 * MB, 5 * MB, 10 * MB, 20 * MB, 50 * MB, 100 * MB},
		Reps:  5,
	}
}

// Fig4Row is one size's measurements.
type Fig4Row struct {
	Size        int64
	HomeFetch   Stats
	HomeStore   Stats
	RemoteFetch Stats
	RemoteStore Stats
}

// Fig4Result reproduces Figure 4: "the latency and the latency variation
// for fetch and store accesses to data stored in nodes in a home vs. a
// public remote cloud".
type Fig4Result struct {
	Rows []Fig4Row
}

// RunFig4 executes the experiment. "For the home cloud measurements, the
// dataset is distributed across all nodes in our home prototype, so data
// accesses are made to both on-node and off-node storage."
func RunFig4(cfg Fig4Config) (_ *Fig4Result, err error) {
	defer catch(&err)
	res := &Fig4Result{}
	check(scenario{name: "fig4", opts: cluster.Options{Seed: cfg.Seed}, setup: func(e *env) {
		sess := e.openEach(e.nodes...)
		seq := 0
		for _, size := range cfg.Sizes {
			var homeFetch, homeStore, remoteFetch, remoteStore []time.Duration
			for rep := 0; rep < cfg.Reps; rep++ {
				// Home: store from one node, fetch from another, so both
				// on-node and off-node paths are exercised.
				producer := sess[seq%len(sess)]
				consumer := sess[(seq+1+rep)%len(sess)]
				seq++

				name := fmt.Sprintf("fig4/home-%d-%d", size, rep)
				homeStore = append(homeStore, put(producer, name, "blob", nil, size, blocking).Total)
				homeFetch = append(homeFetch, must(consumer.FetchObject(name)).Breakdown.Total)

				// Remote: force placement into the public cloud.
				rname := fmt.Sprintf("fig4/remote-%d-%d", size, rep)
				remoteStore = append(remoteStore, put(producer, rname, "blob", nil, size, remote).Total)
				remoteFetch = append(remoteFetch, must(consumer.FetchObject(rname)).Breakdown.Total)
			}
			res.Rows = append(res.Rows, Fig4Row{
				Size:        size,
				HomeFetch:   Summarize(homeFetch),
				HomeStore:   Summarize(homeStore),
				RemoteFetch: Summarize(remoteFetch),
				RemoteStore: Summarize(remoteStore),
			})
		}
	}}.run())
	return res, nil
}

// Table renders the result in the figure's layout.
func (r *Fig4Result) Table() Table {
	t := Table{
		Title: "Figure 4: Home vs remote cloud latency (mean ± stdev, seconds)",
		Headers: []string{"Size(MB)", "HomeFetch", "±", "HomeStore", "±",
			"RemoteFetch", "±", "RemoteStore", "±"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Size/MB),
			Seconds(row.HomeFetch.Mean), Seconds(row.HomeFetch.Stdev),
			Seconds(row.HomeStore.Mean), Seconds(row.HomeStore.Stdev),
			Seconds(row.RemoteFetch.Mean), Seconds(row.RemoteFetch.Stdev),
			Seconds(row.RemoteStore.Mean), Seconds(row.RemoteStore.Stdev),
		})
	}
	return t
}
