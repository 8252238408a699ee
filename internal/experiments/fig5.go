package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
)

// Fig5Config parameterises the remote-cloud optimal-object-size sweep.
type Fig5Config struct {
	Seed int64
	// Sizes are the object sizes swept (paper: 10..100 MB).
	Sizes []int64
	// Method1Bytes keeps the total bytes per bucket constant (Method 1).
	Method1Bytes int64
	// Method2Files keeps the file count per bucket constant (Method 2).
	Method2Files int
	// StoreFraction mixes store vs fetch interactions (paper: 0.6).
	StoreFraction float64
}

// DefaultFig5 matches the paper's sweep.
func DefaultFig5(seed int64) Fig5Config {
	sizes := make([]int64, 0, 10)
	for s := int64(10); s <= 100; s += 10 {
		sizes = append(sizes, s*MB)
	}
	return Fig5Config{
		Seed:          seed,
		Sizes:         sizes,
		Method1Bytes:  300 * MB,
		Method2Files:  4,
		StoreFraction: 0.6,
	}
}

// Fig5Row is one object size's aggregate throughput.
type Fig5Row struct {
	Size         int64
	Method1MBps  float64
	Method2MBps  float64
	Method1Files int
	Method2Files int
}

// Fig5Result reproduces Figure 5: "Remote Cloud - optimal object size".
// Throughput rises with object size while TCP slow-start costs amortise,
// peaks near 20 MB, then declines as ISP traffic shaping throttles long
// transfers.
type Fig5Result struct {
	Rows []Fig5Row
}

// RunFig5 executes both methods for every object size.
func RunFig5(cfg Fig5Config) (_ *Fig5Result, err error) {
	defer catch(&err)
	res := &Fig5Result{}
	for _, size := range cfg.Sizes {
		m1Files := max(int(cfg.Method1Bytes/size), 1)
		res.Rows = append(res.Rows, Fig5Row{
			Size:         size,
			Method1MBps:  runFig5Bucket(cfg, size, m1Files),
			Method2MBps:  runFig5Bucket(cfg, size, cfg.Method2Files),
			Method1Files: m1Files,
			Method2Files: cfg.Method2Files,
		})
	}
	return res, nil
}

// runFig5Bucket stores count objects of one size in the remote cloud and
// replays a store/fetch mix against them, returning aggregate throughput
// over all remote interactions in MB/s.
func runFig5Bucket(cfg Fig5Config, size int64, count int) float64 {
	var moved int64
	var busy time.Duration
	check(scenario{name: fmt.Sprintf("fig5 size %d", size/MB), opts: cluster.Options{Seed: cfg.Seed + size/MB}, setup: func(e *env) {
		sess := e.open(e.Netbooks[0])
		// Every object needs its initial store; fresh re-stores make up
		// the rest of the store share.
		storeOps := max(int(float64(count)*cfg.StoreFraction/(1-cfg.StoreFraction)), count)
		for i := 0; i < storeOps; i++ {
			name := fmt.Sprintf("fig5/%d/%d", size/MB, i)
			if i >= count {
				name = fmt.Sprintf("fig5/%d/re-%d", size/MB, i)
			}
			busy += put(sess, name, "blob", nil, size, remote).Total
			moved += size
		}
		// Fetches (the 40 % share).
		fetchOps := int(float64(storeOps) * (1 - cfg.StoreFraction) / cfg.StoreFraction)
		for i := 0; i < fetchOps; i++ {
			busy += must(sess.FetchObject(fmt.Sprintf("fig5/%d/%d", size/MB, i%count))).Breakdown.Total
			moved += size
		}
	}}.run())
	return Throughput(moved, busy)
}

// Table renders the sweep.
func (r *Fig5Result) Table() Table {
	t := Table{
		Title:   "Figure 5: Remote cloud throughput vs object size",
		Headers: []string{"ObjectSize(MB)", "Method1(MB/s)", "Method2(MB/s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Size/MB),
			fmt.Sprintf("%.2f", row.Method1MBps),
			fmt.Sprintf("%.2f", row.Method2MBps),
		})
	}
	return t
}

// Peak returns the object size with the best Method 1 throughput.
func (r *Fig5Result) Peak() (int64, float64) {
	var bestSize int64
	var best float64
	for _, row := range r.Rows {
		if row.Method1MBps > best {
			best, bestSize = row.Method1MBps, row.Size
		}
	}
	return bestSize, best
}
