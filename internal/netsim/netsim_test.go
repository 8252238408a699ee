package netsim

import (
	"testing"
	"time"

	"cloud4home/internal/vclock"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func newNet() (*Network, *vclock.Virtual) {
	v := vclock.NewVirtual(epoch)
	return New(v, 7), v
}

func lanPath() (*Path, *Resource, *Resource, *Resource) {
	src := NewResource(NodeNICBps)
	dst := NewResource(NodeNICBps)
	fabric := NewResource(LANFabricBps)
	return HomePath(src, dst, fabric), src, dst, fabric
}

func TestPathValidate(t *testing.T) {
	p, _, _, _ := lanPath()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid LAN path rejected: %v", err)
	}
	bad := []*Path{
		{},
		{Resources: []*Resource{nil}},
		{Resources: p.Resources, SlowStart: &SlowStart{InitWindow: 0, MaxWindow: 10}},
		{Resources: p.Resources, SlowStart: &SlowStart{InitWindow: 20, MaxWindow: 10}},
		{Resources: p.Resources, Shaping: &Shaping{RateFactor: 0}},
		{Resources: p.Resources, Shaping: &Shaping{RateFactor: 1.5}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad path %d accepted", i)
		}
	}
}

func TestTransferLinearInSize(t *testing.T) {
	net, v := newNet()
	p, _, _, _ := lanPath()
	var d10, d50 time.Duration
	v.Run(func() {
		d10 = net.Transfer(p, 10*MB)
		d50 = net.Transfer(p, 50*MB)
	})
	ratio := float64(d50) / float64(d10)
	if ratio < 3.5 || ratio > 6.5 {
		t.Fatalf("50 MB/10 MB duration ratio = %.2f, want ≈5 (linear)", ratio)
	}
	// 10 MB at ~7.4 MB/s ≈ 1.35 s.
	if d10 < time.Second || d10 > 2*time.Second {
		t.Fatalf("10 MB LAN transfer took %v, want ≈1.4 s", d10)
	}
}

func TestTransferZeroSizeIsMessage(t *testing.T) {
	net, v := newNet()
	p, _, _, _ := lanPath()
	var d time.Duration
	v.Run(func() { d = net.Transfer(p, 0) })
	if d > 10*time.Millisecond {
		t.Fatalf("zero-byte transfer took %v", d)
	}
}

func TestProcessorSharingHalvesRate(t *testing.T) {
	net, v := newNet()
	// Two transfers crossing the same bottleneck NIC should each take
	// roughly twice as long as one alone.
	src := NewResource(NodeNICBps)
	dst1 := NewResource(NodeNICBps)
	dst2 := NewResource(NodeNICBps)
	fabric := NewResource(10 * NodeNICBps) // fabric not the bottleneck
	var solo, shared1, shared2 time.Duration
	v.Run(func() {
		solo = net.Transfer(HomePath(src, dst1, fabric), 20*MB)
		g := vclock.NewGroup(v)
		g.Go(func() { shared1 = net.Transfer(HomePath(src, dst1, fabric), 20*MB) })
		g.Go(func() { shared2 = net.Transfer(HomePath(src, dst2, fabric), 20*MB) })
		g.Wait()
	})
	for _, d := range []time.Duration{shared1, shared2} {
		ratio := float64(d) / float64(solo)
		if ratio < 1.5 || ratio > 2.6 {
			t.Fatalf("contended/solo ratio = %.2f, want ≈2 (processor sharing)", ratio)
		}
	}
}

func TestFabricCapsAggregate(t *testing.T) {
	net, v := newNet()
	// Three disjoint node pairs share the LAN fabric; aggregate throughput
	// must not exceed fabric capacity.
	fabric := NewResource(LANFabricBps)
	start := v.Now()
	var done time.Time
	v.Run(func() {
		g := vclock.NewGroup(v)
		for i := 0; i < 3; i++ {
			src := NewResource(NodeNICBps)
			dst := NewResource(NodeNICBps)
			g.Go(func() { net.Transfer(HomePath(src, dst, fabric), 30*MB) })
		}
		g.Wait()
		done = v.Now()
	})
	elapsed := done.Sub(start).Seconds()
	aggBps := float64(90*MB) / elapsed
	if aggBps > LANFabricBps*1.1 {
		t.Fatalf("aggregate %.1f MB/s exceeds fabric %.1f MB/s",
			aggBps/1e6, LANFabricBps/1e6)
	}
	// And it should beat a single NIC's worth, showing real concurrency.
	if aggBps < NodeNICBps*1.2 {
		t.Fatalf("aggregate %.1f MB/s shows no concurrency gain", aggBps/1e6)
	}
}

func TestWANSlowStartPenalizesSmallObjects(t *testing.T) {
	net, v := newNet()
	wan := NewResource(WANDownBps)
	dst := NewResource(NodeNICBps)
	tput := func(size int64) float64 {
		var d time.Duration
		v.Run(func() { d = net.Transfer(WANDownPath(wan, dst), size) })
		return float64(size) / d.Seconds()
	}
	small := tput(1 * MB)
	mid := tput(20 * MB)
	if small >= mid {
		t.Fatalf("1 MB throughput %.2f ≥ 20 MB throughput %.2f; slow start should penalize small objects",
			small/1e6, mid/1e6)
	}
}

func TestWANShapingPenalizesHugeObjects(t *testing.T) {
	net, v := newNet()
	wan := NewResource(WANDownBps)
	dst := NewResource(NodeNICBps)
	tput := func(size int64) float64 {
		var d time.Duration
		v.Run(func() { d = net.Transfer(WANDownPath(wan, dst), size) })
		return float64(size) / d.Seconds()
	}
	mid := tput(20 * MB)
	huge := tput(100 * MB)
	if huge >= mid {
		t.Fatalf("100 MB throughput %.2f ≥ 20 MB throughput %.2f; shaping should penalize long transfers",
			huge/1e6, mid/1e6)
	}
}

func TestWANMoreVariableThanLAN(t *testing.T) {
	net, v := newNet()
	wan := NewResource(WANDownBps)
	lanP, _, _, _ := lanPath()
	stdev := func(f func() time.Duration, n int) (mean, sd float64) {
		var xs []float64
		v.Run(func() {
			for i := 0; i < n; i++ {
				xs = append(xs, f().Seconds())
			}
		})
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		for _, x := range xs {
			sd += (x - mean) * (x - mean)
		}
		sd /= float64(n)
		return mean, sd
	}
	dst := NewResource(NodeNICBps)
	lanMean, lanVar := stdev(func() time.Duration { return net.Transfer(lanP, 10*MB) }, 12)
	wanMean, wanVar := stdev(func() time.Duration { return net.Transfer(WANDownPath(wan, dst), 10*MB) }, 12)
	if wanMean < 3*lanMean {
		t.Fatalf("WAN mean %.2fs not ≫ LAN mean %.2fs", wanMean, lanMean)
	}
	lanCV := lanVar / (lanMean * lanMean)
	wanCV := wanVar / (wanMean * wanMean)
	if wanCV <= lanCV {
		t.Fatalf("WAN relative variance %.4f ≤ LAN %.4f; Fig 4 needs the opposite", wanCV, lanCV)
	}
}

func TestDegradeSlowsTransfers(t *testing.T) {
	net, v := newNet()
	p, _, _, fabric := lanPath()
	var before, after time.Duration
	v.Run(func() {
		before = net.Transfer(p, 10*MB)
		fabric.Degrade(0.1) // fabric becomes the bottleneck
		after = net.Transfer(p, 10*MB)
		fabric.Restore()
	})
	if after < 3*before {
		t.Fatalf("degraded transfer %v not much slower than %v", after, before)
	}
	if got := fabric.Capacity(); got != LANFabricBps {
		t.Fatalf("Restore did not reset capacity: %v", got)
	}
}

func TestDegradeToZeroDoesNotDivideByZero(t *testing.T) {
	net, v := newNet()
	p, _, _, fabric := lanPath()
	fabric.Degrade(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.Run(func() { net.Transfer(p, 1024) })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("transfer over zero-capacity link hung or crashed")
	}
}

func TestEstimateTracksActual(t *testing.T) {
	net, v := newNet()
	p, _, _, _ := lanPath()
	var actual time.Duration
	v.Run(func() { actual = net.Transfer(p, 25*MB) })
	est := EstimateTransfer(p, 25*MB)
	ratio := est.Seconds() / actual.Seconds()
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("estimate %v vs actual %v (ratio %.2f): decision layer needs a usable estimate",
			est, actual, ratio)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		v := vclock.NewVirtual(epoch)
		net := New(v, 99)
		p, _, _, _ := lanPath()
		var d time.Duration
		v.Run(func() { d = net.Transfer(p, 17*MB) })
		return d
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced %v then %v", a, b)
	}
}

func TestMessageChargesHalfRTT(t *testing.T) {
	net, v := newNet()
	p := &Path{Resources: []*Resource{NewResource(1e6)}, RTT: 100 * time.Millisecond}
	var d time.Duration
	v.Run(func() { d = net.Message(p) })
	if d != 50*time.Millisecond {
		t.Fatalf("Message = %v, want 50ms (no jitter configured)", d)
	}
}

func TestWirelessPathSlowerAndJitterier(t *testing.T) {
	net, v := newNet()
	fabric := NewResource(LANFabricBps)
	wired := NewResource(NodeNICBps)
	wifi := NewResource(WifiNICBps)
	dst := NewResource(NodeNICBps)
	var dWired, dWifi time.Duration
	v.Run(func() {
		dWired = net.Transfer(HomePathMixed(wired, dst, fabric, false, false), 8*MB)
		dWifi = net.Transfer(HomePathMixed(wifi, dst, fabric, true, false), 8*MB)
	})
	if dWifi < 2*dWired {
		t.Fatalf("wireless transfer %v not ≫ wired %v", dWifi, dWired)
	}
	p := HomePathMixed(wifi, dst, fabric, true, false)
	if p.Jitter <= LANJitter || p.RTT <= LANRTT {
		t.Fatalf("wireless path lacks penalty: %+v", p)
	}
	// Wired-to-wired mixed path is identical to the plain home path.
	pp := HomePathMixed(wired, dst, fabric, false, false)
	if pp.Jitter != LANJitter || pp.RTT != LANRTT {
		t.Fatalf("wired mixed path should match HomePath: %+v", pp)
	}
}

// idleClock accepts sleeps without blocking or allocating, so
// AllocsPerRun sees only the network's own per-operation work.
type idleClock struct{}

func (idleClock) Now() time.Time      { return time.Time{} }
func (idleClock) Sleep(time.Duration) {}

// TestOperationsDoNotAllocateGenerators: every Message and Transfer
// draws its own seeded jitter stream; the stream must come from the
// pool, lazily seeded, not from a fresh 5 KB generator.
func TestOperationsDoNotAllocateGenerators(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	n := New(idleClock{}, 2011)
	p, _, _, _ := lanPath()
	n.Message(p) // warm the pool
	if avg := testing.AllocsPerRun(200, func() { n.Message(p) }); avg != 0 {
		t.Errorf("Message allocates %.1f objects per call, want 0", avg)
	}
	const oneChunk = 32 << 10
	if avg := testing.AllocsPerRun(200, func() { n.Transfer(p, oneChunk) }); avg != 0 {
		t.Errorf("one-chunk Transfer allocates %.1f objects per call, want 0", avg)
	}
	r := p.Resources[0]
	r.acquire()
	r.acquire()
	defer r.release()
	defer r.release()
	var rate float64
	if avg := testing.AllocsPerRun(200, func() { rate = r.share() }); avg != 0 {
		t.Errorf("share allocates %.1f objects per call, want 0", avg)
	}
	if want := NodeNICBps / 2; rate != want {
		t.Errorf("share with two transfers = %v, want %v", rate, want)
	}
}

// TestResourceSharedByActors: transfers over one shared path run as
// actors of their own while another actor degrades, reads and restores a
// resource on it, between their chunks. Under -race this checks that the
// actors share the Resource through the clock's turn alone; the degraded
// share must stay within the degraded capacity, and afterwards the
// resource must be idle at its nominal capacity.
func TestResourceSharedByActors(t *testing.T) {
	const nominal = 1e12 // fast enough that a 64 KB transfer sleeps ~65 ns
	v := vclock.NewVirtual(epoch)
	n := New(v, 3)
	link := NewResource(nominal)
	p := &Path{Resources: []*Resource{NewResource(nominal), link}}

	degraded := 0
	v.Run(func() {
		transfers, faults := vclock.NewGroup(v), vclock.NewGroup(v)
		running := 4
		for i := 0; i < running; i++ {
			transfers.Go(func() {
				for j := 0; j < 50; j++ {
					n.Transfer(p, 64<<10)
				}
				running--
			})
		}
		faults.Go(func() {
			for running > 0 {
				link.Degrade(0.5)
				if s := link.share(); s <= 0 || s > nominal/2 {
					t.Errorf("share of a link degraded to %v = %v", nominal/2, s)
				}
				if link.Active() > 0 {
					degraded++
				}
				v.Sleep(20 * time.Nanosecond)
				link.Restore()
				v.Sleep(20 * time.Nanosecond)
			}
		})
		transfers.Wait()
		faults.Wait()
	})

	if degraded == 0 {
		t.Error("no degradation landed while a transfer crossed the link")
	}
	if a := link.Active(); a != 0 {
		t.Errorf("Active() = %d after every transfer returned, want 0", a)
	}
	if c := link.Capacity(); c != nominal {
		t.Errorf("Capacity() = %v after Restore, want nominal %v", c, nominal)
	}
}
