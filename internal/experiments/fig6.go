package experiments

import (
	"fmt"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/policy"
	"cloud4home/internal/trace"
)

// Fig6Config parameterises the joint home/remote fetch-throughput sweep.
type Fig6Config struct {
	Seed int64
	// RemotePcts are the swept shares of data placed in the remote cloud
	// (paper x-axis: 0–55 %).
	RemotePcts []int
	// Threads are the client concurrency levels (paper: 1, 2, 3).
	Threads []int
	// TotalBytes is the volume fetched per point (paper: 700 MB).
	TotalBytes int64
	// Clients is how many devices issue fetches (paper: 3 of 6).
	Clients int
}

// DefaultFig6 matches the paper's setup: objects in the "optimal" size
// band (10–25 MB) found in Figure 5, 700 MB fetched per point, private
// .mp3 files kept local and shareable content remote.
func DefaultFig6(seed int64) Fig6Config {
	return Fig6Config{
		Seed:       seed,
		RemotePcts: []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55},
		Threads:    []int{1, 2, 3},
		TotalBytes: 700 * MB,
		Clients:    3,
	}
}

// Fig6Row is one remote-share point.
type Fig6Row struct {
	RemotePct int
	// MBps[k] is the aggregate fetch throughput with Threads[k] workers.
	MBps []float64
}

// Fig6Result reproduces Figure 6: aggregate fetch throughput as the share
// of remotely-stored data and the client concurrency vary, plus the flat
// remote-cloud-only reference line.
type Fig6Result struct {
	Threads    []int
	Rows       []Fig6Row
	RemoteOnly float64
}

// RunFig6 executes the sweep.
func RunFig6(cfg Fig6Config) (_ *Fig6Result, err error) {
	defer catch(&err)
	// One catalogue for every point: objects in the 10–25 MB band, fetched
	// straight from the catalogue rather than through a trace's accesses.
	tcfg := trace.Default(cfg.Seed)
	tcfg.MinSize = 10 * MB
	tcfg.MaxSize = 25 * MB
	tcfg.Files = int(cfg.TotalBytes / (17 * MB))
	tcfg.Accesses = 0
	tr := must(trace.Generate(tcfg))
	res := &Fig6Result{Threads: cfg.Threads}
	for _, pct := range cfg.RemotePcts {
		row := Fig6Row{RemotePct: pct}
		for _, threads := range cfg.Threads {
			row.MBps = append(row.MBps, runFig6Point(cfg, tr, pct, threads))
		}
		res.Rows = append(res.Rows, row)
	}
	// The remote-cloud reference: everything remote, highest concurrency.
	res.RemoteOnly = runFig6Point(cfg, tr, 100, cfg.Threads[len(cfg.Threads)-1])
	return res, nil
}

// runFig6Point builds a testbed, places ~remotePct% of the dataset's
// bytes in the remote cloud (shareable files first, mirroring the privacy
// policy), and measures aggregate throughput of fetching the whole
// dataset with the given number of worker threads.
func runFig6Point(cfg Fig6Config, tr *trace.Trace, remotePct, threads int) float64 {
	var totalBytes int64
	var clients []*core.Session
	jobs := &jobQueue{limit: len(tr.Files)}
	var tput float64
	check(scenario{
		name: fmt.Sprintf("fig6 pct=%d threads=%d", remotePct, threads),
		opts: cluster.Options{Seed: cfg.Seed + int64(remotePct)*100 + int64(threads)},
		setup: func(e *env) {
			owners := e.openEach(e.nodes...)
			// Placement: shareable files go remote until the byte budget for
			// this point is spent; everything else is distributed across the
			// home nodes.
			remoteBudget := tr.TotalBytes() * int64(remotePct) / 100
			var remoteBytes int64
			for i, f := range tr.Files {
				opts := core.StoreOptions{Blocking: true, Policy: policy.DefaultLocal{}}
				if remotePct >= 100 || (remoteBytes < remoteBudget && f.Type != "mp3") {
					opts = remote
					remoteBytes += f.Size
				}
				put(owners[i%len(owners)], f.Name, f.Type, f.Tags, f.Size, opts)
				totalBytes += f.Size
			}
			// Client sessions on the first cfg.Clients netbooks.
			for i := 0; i < cfg.Clients; i++ {
				clients = append(clients, e.open(e.Netbooks[i%len(e.Netbooks)]))
			}
		},
		// The worker threads drain one shared queue of fetches.
		clients: threads,
		client: func(_ *env, w int, _ *core.Session) {
			for j, ok := jobs.take(); ok; j, ok = jobs.take() {
				must(clients[w%len(clients)].FetchObject(tr.Files[j].Name))
			}
		},
		fold: func(e *env) { tput = Throughput(totalBytes, e.V.Now().Sub(e.start)) },
	}.run())
	return tput
}

// Table renders the sweep.
func (r *Fig6Result) Table() Table {
	headers := []string{"Remote%"}
	for _, th := range r.Threads {
		headers = append(headers, fmt.Sprintf("%dThread(MB/s)", th))
	}
	headers = append(headers, "RemoteCloud(MB/s)")
	t := Table{
		Title:   "Figure 6: Aggregate fetch throughput vs % data in remote cloud",
		Headers: headers,
	}
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%d", row.RemotePct)}
		for _, v := range row.MBps {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.RemoteOnly))
		t.Rows = append(t.Rows, cells)
	}
	return t
}
