package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2*time.Second {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Stdev != time.Second {
		t.Fatalf("stdev = %v", s.Stdev)
	}
	if s.Min != time.Second || s.Max != 3*time.Second || s.Sample != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if z := Summarize(nil); z.Sample != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(10*MB, 2*time.Second); got != 5 {
		t.Fatalf("throughput = %v, want 5", got)
	}
	if got := Throughput(1, 0); got != 0 {
		t.Fatalf("zero elapsed: %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "T",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"xxxxx", "1"}},
	}
	out := tb.Render()
	if out == "" || out[0] != 'T' {
		t.Fatalf("render: %q", out)
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := Fig4Config{Seed: 42, Sizes: []int64{1 * MB, 10 * MB, 50 * MB}, Reps: 3}
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RemoteFetch.Mean <= row.HomeFetch.Mean {
			t.Errorf("size %dMB: remote fetch %v not slower than home %v",
				row.Size/MB, row.RemoteFetch.Mean, row.HomeFetch.Mean)
		}
		if row.RemoteStore.Mean <= row.HomeStore.Mean {
			t.Errorf("size %dMB: remote store %v not slower than home %v",
				row.Size/MB, row.RemoteStore.Mean, row.HomeStore.Mean)
		}
		// Remote stores are slower than remote fetches (upload < download
		// bandwidth).
		if row.RemoteStore.Mean <= row.RemoteFetch.Mean {
			t.Errorf("size %dMB: remote store %v not slower than remote fetch %v",
				row.Size/MB, row.RemoteStore.Mean, row.RemoteFetch.Mean)
		}
	}
	// Latency grows with size.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].HomeFetch.Mean <= res.Rows[i-1].HomeFetch.Mean {
			t.Errorf("home fetch latency not increasing with size")
		}
		if res.Rows[i].RemoteFetch.Mean <= res.Rows[i-1].RemoteFetch.Mean {
			t.Errorf("remote fetch latency not increasing with size")
		}
	}
	// The variability gap (Fig 4's error bars): at the largest size the
	// remote stdev dwarfs the home stdev.
	last := res.Rows[len(res.Rows)-1]
	if last.RemoteFetch.Stdev <= last.HomeFetch.Stdev {
		t.Errorf("remote stdev %v not larger than home %v",
			last.RemoteFetch.Stdev, last.HomeFetch.Stdev)
	}
	_ = res.Table().Render()
}

func TestTable1Shape(t *testing.T) {
	cfg := Table1Config{Seed: 42, Sizes: []int64{1 * MB, 10 * MB, 100 * MB}, Reps: 3}
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.InterDomain.Mean >= row.InterNode.Mean {
			t.Errorf("size %dMB: inter-domain %v not ≪ inter-node %v",
				row.Size/MB, row.InterDomain.Mean, row.InterNode.Mean)
		}
		if row.DHTLookup.Mean <= 0 || row.DHTLookup.Mean > 100*time.Millisecond {
			t.Errorf("size %dMB: DHT lookup %v outside the plausible band",
				row.Size/MB, row.DHTLookup.Mean)
		}
		if row.Total.Mean < row.InterNode.Mean {
			t.Errorf("total %v below inter-node %v", row.Total.Mean, row.InterNode.Mean)
		}
	}
	// DHT lookup stays roughly constant while transfers grow linearly.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.InterNode.Mean < 50*first.InterNode.Mean {
		t.Errorf("inter-node cost not ≈linear: %v at 1MB vs %v at 100MB",
			first.InterNode.Mean, last.InterNode.Mean)
	}
	ratio := float64(last.DHTLookup.Mean) / float64(first.DHTLookup.Mean)
	if ratio > 3 || ratio < 0.33 {
		t.Errorf("DHT lookup should be size-independent; ratio %v", ratio)
	}
	// Calibration: 100 MB inter-node ≈ 13.6 s in the paper.
	if last.InterNode.Mean < 8*time.Second || last.InterNode.Mean > 25*time.Second {
		t.Errorf("100 MB inter-node = %v, want ≈13.6 s", last.InterNode.Mean)
	}
	_ = res.Table().Render()
}

func TestFig5Shape(t *testing.T) {
	cfg := Fig5Config{
		Seed:          42,
		Sizes:         []int64{10 * MB, 20 * MB, 100 * MB},
		Method1Bytes:  200 * MB,
		Method2Files:  3,
		StoreFraction: 0.6,
	}
	res, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byteAt := map[int64]Fig5Row{}
	for _, row := range res.Rows {
		byteAt[row.Size] = row
		if row.Method1MBps <= 0 || row.Method2MBps <= 0 {
			t.Fatalf("non-positive throughput: %+v", row)
		}
	}
	// Unimodal: 20 MB beats both 10 MB (slow start) and 100 MB (shaping).
	if byteAt[20*MB].Method1MBps <= byteAt[10*MB].Method1MBps {
		t.Errorf("Method 1: 20 MB (%.2f) not above 10 MB (%.2f)",
			byteAt[20*MB].Method1MBps, byteAt[10*MB].Method1MBps)
	}
	if byteAt[20*MB].Method1MBps <= byteAt[100*MB].Method1MBps {
		t.Errorf("Method 1: 20 MB (%.2f) not above 100 MB (%.2f)",
			byteAt[20*MB].Method1MBps, byteAt[100*MB].Method1MBps)
	}
	// Both methods show similar trends (the paper's observation).
	if byteAt[20*MB].Method2MBps <= byteAt[100*MB].Method2MBps {
		t.Errorf("Method 2: 20 MB (%.2f) not above 100 MB (%.2f)",
			byteAt[20*MB].Method2MBps, byteAt[100*MB].Method2MBps)
	}
	size, _ := res.Peak()
	if size != 20*MB {
		t.Errorf("peak at %d MB, want 20", size/MB)
	}
	_ = res.Table().Render()
}

func TestFig6Shape(t *testing.T) {
	cfg := Fig6Config{
		Seed:       42,
		RemotePcts: []int{0, 50},
		Threads:    []int{1, 3},
		TotalBytes: 200 * MB,
		Clients:    3,
	}
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := res.Rows[0]  // 0 % remote
	mixed := res.Rows[1] // 50 % remote
	// Concurrency helps when content is mostly home (the paper's 45 %).
	gain := home.MBps[1] / home.MBps[0]
	if gain < 1.2 {
		t.Errorf("3-thread gain at 0%% remote = %.2fx, want ≥1.2x", gain)
	}
	// More remote content lowers aggregate throughput.
	if mixed.MBps[1] >= home.MBps[1] {
		t.Errorf("50%% remote (%.2f) not below 0%% remote (%.2f) at 3 threads",
			mixed.MBps[1], home.MBps[1])
	}
	// The remote-cloud-only line sits far below home-heavy operation.
	if res.RemoteOnly >= home.MBps[0] {
		t.Errorf("remote-only %.2f not below 1-thread home %.2f", res.RemoteOnly, home.MBps[0])
	}
	_ = res.Table().Render()
}

func TestSplitShape(t *testing.T) {
	cfg := SplitConfig{Seed: 42, Images: 12, ImageSize: 2 * MB, RemoteWorkers: 3}
	res, err := RunSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: split < remote < home (98 < 127 < 162 s).
	if !(res.Split < res.Remote && res.Remote < res.Home) {
		t.Errorf("ordering violated: split %v, remote %v, home %v",
			res.Split, res.Remote, res.Home)
	}
	if res.HomeShare <= 0 || res.HomeShare >= 1 {
		t.Errorf("home share %v not a proper split", res.HomeShare)
	}
	_ = res.Table().Render()
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(DefaultFig7(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's crossovers: S1 best for the smallest image, S3 best for
	// the largest (S2's 128 MB VM thrashes on FRec), S2 best in between.
	if res.Rows[0].Best != "S1" {
		t.Errorf("0.25 MB best = %s (S1 %v, S2 %v, S3 %v), want S1",
			res.Rows[0].Best, res.Rows[0].S1, res.Rows[0].S2, res.Rows[0].S3)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Best != "S3" {
		t.Errorf("2 MB best = %s (S1 %v, S2 %v, S3 %v), want S3",
			last.Best, last.S1, last.S2, last.S3)
	}
	sawS2 := false
	for _, row := range res.Rows[1 : len(res.Rows)-1] {
		if row.Best == "S2" {
			sawS2 = true
		}
	}
	if !sawS2 {
		t.Errorf("S2 never wins at intermediate sizes: %+v", res.Rows)
	}
	_ = res.Table().Render()
}

func TestFig8Shape(t *testing.T) {
	cfg := Fig8Config{Seed: 42, Sizes: []int64{10 * MB, 20 * MB}}
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Topt >= row.Town {
			t.Errorf("size %dMB: Topt %v not below Town %v", row.Size/MB, row.Topt, row.Town)
		}
		if row.Chosen != "desktop:9000" {
			t.Errorf("size %dMB: decision chose %q, want desktop", row.Size/MB, row.Chosen)
		}
	}
	_ = res.Table().Render()
}

func TestExperimentsDeterministic(t *testing.T) {
	// Same seed, same testbed ⇒ bit-identical results for the sequential
	// experiments (the concurrency-bearing ones are shape-checked above).
	cfg := Table1Config{Seed: 5, Sizes: []int64{5 * MB}, Reps: 3}
	a, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Total.Mean != b.Rows[0].Total.Mean ||
		a.Rows[0].DHTLookup.Mean != b.Rows[0].DHTLookup.Mean {
		t.Fatalf("same seed produced %v then %v", a.Rows[0].Total.Mean, b.Rows[0].Total.Mean)
	}
	f1, err := RunFig7(DefaultFig7(5))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := RunFig7(DefaultFig7(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Rows {
		if f1.Rows[i].S1 != f2.Rows[i].S1 || f1.Rows[i].S2 != f2.Rows[i].S2 || f1.Rows[i].S3 != f2.Rows[i].S3 {
			t.Fatalf("Fig7 row %d differs across identical seeds", i)
		}
	}
}

func TestScaleShape(t *testing.T) {
	cfg := ScaleConfig{Seed: 42, Sizes: []int{4, 16}, Objects: 15, ObjectSize: 2 * MB}
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Rows[0], res.Rows[1]
	// Lookup cost grows with membership but stays within prefix routing's
	// O(log n): well under 4x for a 4x size increase.
	if large.Lookup.Mean < small.Lookup.Mean {
		t.Errorf("lookup did not grow with size: %v -> %v", small.Lookup.Mean, large.Lookup.Mean)
	}
	if large.Lookup.Mean > 4*small.Lookup.Mean {
		t.Errorf("lookup grew superlinearly: %v -> %v", small.Lookup.Mean, large.Lookup.Mean)
	}
	// The data path is size-independent (point-to-point transfers).
	ratio := large.Fetch.Mean.Seconds() / small.Fetch.Mean.Seconds()
	if ratio > 1.5 {
		t.Errorf("off-node fetch degraded %.2fx with size", ratio)
	}
	if small.JoinCost <= 0 || large.JoinCost <= 0 {
		t.Error("join costs not measured")
	}
	_ = res.Table().Render()
}

// TestNoActorOutlivesItsExperiment runs every experiment of the
// evaluation and requires each to return with none of its clock actors
// still running: the runner joins every actor it starts, the background
// ones (compute scale-up's hogs) included.
func TestNoActorOutlivesItsExperiment(t *testing.T) {
	// Allocated up front, so reading the stacks right after a run does not
	// first yield to a collection that a leftover actor could finish in.
	buf := make([]byte, 1<<20)
	for _, e := range Evaluation(CityScaleConfig{}) {
		if e.OnDemand {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			before := clockActors(buf)
			if _, err := e.Run(42); err != nil {
				t.Fatal(err)
			}
			if after := clockActors(buf); after > before {
				t.Errorf("%d clock actors outlived the experiment (%d before, %d after)", after-before, before, after)
			}
		})
	}
}

// clockActors counts the clock actors whose work has not returned:
// coroutines under vclock's actor wrapper with a frame of their own above
// it, and coroutines not yet started. An actor's coroutine exits before
// Run resumes anything else, so the count does not race goroutine
// teardown the way runtime.NumGoroutine does.
func clockActors(buf []byte) int {
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[coroutine]:\nruntime.corostart()") {
			live++
			continue
		}
		if !strings.Contains(g, "vclock.newActor.func1(") {
			continue
		}
		for _, frame := range strings.Split(g, "\n") {
			if strings.HasPrefix(frame, "cloud4home/") && !strings.HasPrefix(frame, "cloud4home/internal/vclock.") {
				live++
				break
			}
		}
	}
	return live
}
