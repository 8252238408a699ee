package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"cloud4home/internal/vclock"
)

// runSet executes a TransferSet on a fresh virtual clock and returns the
// statuses and total wall time.
func runSet(t *testing.T, seed int64, build func() []TransferReq) ([]TransferStatus, time.Duration) {
	t.Helper()
	v := vclock.NewVirtual(epoch)
	net := New(v, seed)
	var (
		st    []TransferStatus
		total time.Duration
		err   error
	)
	v.Run(func() { st, total, err = net.TransferSet(build()) })
	if err != nil {
		t.Fatalf("TransferSet: %v", err)
	}
	return st, total
}

func TestTransferSetMatchesTransferSingle(t *testing.T) {
	// A one-member set and a plain Transfer draw jitter in the same order
	// from the same stream, so with a fresh network they are identical —
	// on the plain LAN path and on the WAN path with slow start + shaping —
	// in elapsed time and in what Traffic() counts (a zero-byte member is
	// a message on both sides).
	type traffic struct{ messages, transfers, bytes int64 }
	cases := []struct {
		name string
		path func() *Path
		size int64
	}{
		{"lan", func() *Path { p, _, _, _ := lanPath(); return p }, 20 * MB},
		{"wan", func() *Path {
			return WANDownPath(NewResource(WANDownBps), NewResource(NodeNICBps))
		}, 60 * MB},
		{"zero-byte", func() *Path { p, _, _, _ := lanPath(); return p }, 0},
	}
	for _, tc := range cases {
		var single, total time.Duration
		var st []TransferStatus
		var err error
		var plain, set traffic

		v := vclock.NewVirtual(epoch)
		net := New(v, 3)
		p := tc.path()
		v.Run(func() { single = net.Transfer(p, tc.size) })
		plain.messages, plain.transfers, plain.bytes = net.Traffic()

		v = vclock.NewVirtual(epoch)
		net = New(v, 3)
		reqs := []TransferReq{{Path: tc.path(), Size: tc.size}}
		v.Run(func() { st, total, err = net.TransferSet(reqs) })
		if err != nil {
			t.Fatalf("%s: TransferSet: %v", tc.name, err)
		}
		set.messages, set.transfers, set.bytes = net.Traffic()

		if st[0].Elapsed != single || total != single {
			t.Errorf("%s: set elapsed %v / total %v, Transfer %v", tc.name, st[0].Elapsed, total, single)
		}
		if st[0].Moved != tc.size || st[0].Aborted {
			t.Errorf("%s: status %+v", tc.name, st[0])
		}
		if set != plain {
			t.Errorf("%s: Traffic() after TransferSet = %+v, after Transfer = %+v", tc.name, set, plain)
		}
	}
}

func TestTransferSetDeterministic(t *testing.T) {
	build := func() []TransferReq {
		src1 := NewResource(NodeNICBps)
		src2 := NewResource(NodeNICBps)
		dst := NewResource(NodeNICBps)
		fabric := NewResource(LANFabricBps)
		return []TransferReq{
			{Path: HomePath(src1, dst, fabric), Size: 10 * MB},
			{Path: HomePath(src2, dst, fabric), Size: 10 * MB},
			{Path: HomePath(src1, dst, fabric), Size: 3 * MB},
		}
	}
	a, ta := runSet(t, 9, build)
	b, tb := runSet(t, 9, build)
	if ta != tb {
		t.Fatalf("totals differ: %v vs %v", ta, tb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("member %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTransferSetStripesShareDestination(t *testing.T) {
	// Two half-size stripes from two sources into one destination NIC:
	// the destination is the bottleneck, so striping buys nothing — the
	// set takes about as long as one full-size transfer (not half).
	full, _ := runSet(t, 5, func() []TransferReq {
		src := NewResource(NodeNICBps)
		dst := NewResource(NodeNICBps)
		fabric := NewResource(LANFabricBps)
		return []TransferReq{{Path: HomePath(src, dst, fabric), Size: 20 * MB}}
	})
	_, striped := runSet(t, 5, func() []TransferReq {
		src1 := NewResource(NodeNICBps)
		src2 := NewResource(NodeNICBps)
		dst := NewResource(NodeNICBps)
		fabric := NewResource(LANFabricBps)
		return []TransferReq{
			{Path: HomePath(src1, dst, fabric), Size: 10 * MB},
			{Path: HomePath(src2, dst, fabric), Size: 10 * MB},
		}
	})
	ratio := float64(striped) / float64(full[0].Elapsed)
	if ratio < 0.85 || ratio > 1.25 {
		t.Fatalf("striped/full ratio = %.2f, want ≈1 (destination-bound)", ratio)
	}
}

func TestTransferSetRelievesSharedSource(t *testing.T) {
	// Two clients pulling from the same holder contend for its NIC; with
	// the load spread over two holders each client's stripe set finishes
	// in roughly half the time. This is the effect the striped replica
	// fetch exploits.
	_, contended := runSet(t, 6, func() []TransferReq {
		holder := NewResource(NodeNICBps)
		dst1 := NewResource(NodeNICBps)
		dst2 := NewResource(NodeNICBps)
		fabric := NewResource(LANFabricBps)
		return []TransferReq{
			{Path: HomePath(holder, dst1, fabric), Size: 20 * MB},
			{Path: HomePath(holder, dst2, fabric), Size: 20 * MB},
		}
	})
	_, spread := runSet(t, 6, func() []TransferReq {
		h1 := NewResource(NodeNICBps)
		h2 := NewResource(NodeNICBps)
		dst1 := NewResource(NodeNICBps)
		dst2 := NewResource(NodeNICBps)
		fabric := NewResource(LANFabricBps)
		return []TransferReq{
			{Path: HomePath(h1, dst1, fabric), Size: 20 * MB},
			{Path: HomePath(h2, dst2, fabric), Size: 20 * MB},
		}
	})
	ratio := float64(contended) / float64(spread)
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("contended/spread ratio = %.2f, want ≈2", ratio)
	}
}

func TestTransferSetCancelAbandonsRemainder(t *testing.T) {
	var delivered int64
	cancelled := false
	st, _ := runSet(t, 8, func() []TransferReq {
		p, _, _, _ := lanPath()
		return []TransferReq{{
			Path:    p,
			Size:    20 * MB,
			OnChunk: func(n int64) { delivered += n },
			Cancel:  func() bool { cancelled = delivered > 5*MB; return cancelled },
		}}
	})
	if !st[0].Aborted {
		t.Fatal("transfer not aborted")
	}
	if st[0].Moved <= 5*MB || st[0].Moved >= 20*MB {
		t.Fatalf("moved %d bytes, want partial", st[0].Moved)
	}
	if delivered != st[0].Moved {
		t.Fatalf("OnChunk saw %d bytes, status says %d", delivered, st[0].Moved)
	}
}

func TestTransferSetOnChunkAccountsEveryByte(t *testing.T) {
	var a, b int64
	st, _ := runSet(t, 4, func() []TransferReq {
		p1, _, _, _ := lanPath()
		p2, _, _, _ := lanPath()
		return []TransferReq{
			{Path: p1, Size: 7 * MB, OnChunk: func(n int64) { a += n }},
			{Path: p2, Size: 3 * MB, OnChunk: func(n int64) { b += n }},
		}
	})
	if a != 7*MB || b != 3*MB {
		t.Fatalf("OnChunk totals %d/%d, want %d/%d", a, b, 7*MB, 3*MB)
	}
	if st[0].Moved != 7*MB || st[1].Moved != 3*MB {
		t.Fatalf("statuses %+v", st)
	}
}

func TestMessageAll(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	net := New(v, 2)
	p, _, _, _ := lanPath()
	var one, many, zero time.Duration
	v.Run(func() {
		one = net.MessageAll(p, 1)
		many = net.MessageAll(p, 8)
		zero = net.MessageAll(p, 0)
	})
	if zero != 0 {
		t.Fatalf("k=0 charged %v", zero)
	}
	if one <= 0 || many <= 0 {
		t.Fatal("messages cost nothing")
	}
	// The broadcast is a max, not a sum: far below 8 sequential messages.
	if many > 4*one {
		t.Fatalf("broadcast of 8 cost %v vs single %v — looks like a sum", many, one)
	}
}

// TestPropertyEstimateBoundsConcurrentTransfer is the estimate/transfer
// consistency property: the contention-free EstimateTransfer that policy
// decisions rely on must bound the concurrent path's behaviour — k
// identical concurrent transfers over a shared bottleneck each take about
// estimate + (k-1)×(bulk time), where bulk = estimate − setup/latency.
func TestPropertyEstimateBoundsConcurrentTransfer(t *testing.T) {
	f := func(kRaw, sizeRaw uint8) bool {
		k := int(kRaw%3) + 2             // 2..4 concurrent transfers
		size := int64(sizeRaw%24+4) * MB // 4..27 MB
		v := vclock.NewVirtual(epoch)
		net := New(v, 13)
		src := NewResource(NodeNICBps)
		dst := NewResource(NodeNICBps)
		fabric := NewResource(LANFabricBps)
		p := HomePath(src, dst, fabric)
		est := EstimateTransfer(p, size)
		bulk := est - p.Setup - p.RTT/2
		expected := est + time.Duration(k-1)*bulk

		reqs := make([]TransferReq, k)
		for i := range reqs {
			reqs[i] = TransferReq{Path: p, Size: size}
		}
		var st []TransferStatus
		var err error
		v.Run(func() { st, _, err = net.TransferSet(reqs) })
		if err != nil {
			return false
		}
		for _, s := range st {
			ratio := float64(s.Elapsed) / float64(expected)
			if ratio < 0.75 || ratio > 1.35 {
				t.Logf("k=%d size=%dMB elapsed=%v expected=%v ratio=%.2f", k, size/MB, s.Elapsed, expected, ratio)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEstimateBoundsTransferUnderBackgroundLoad checks the goroutine
// flavour of the same property: a foreground Transfer racing one
// long-lived background transfer lands between 1× and ≈2.3× its
// contention-free estimate.
func TestEstimateBoundsTransferUnderBackgroundLoad(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	net := New(v, 17)
	src := NewResource(NodeNICBps)
	dst1 := NewResource(NodeNICBps)
	dst2 := NewResource(NodeNICBps)
	fabric := NewResource(LANFabricBps)
	fg := HomePath(src, dst1, fabric)
	est := EstimateTransfer(fg, 15*MB)
	var d time.Duration
	v.Run(func() {
		g := vclock.NewGroup(v)
		g.Go(func() { net.Transfer(HomePath(src, dst2, fabric), 40*MB) })
		d = net.Transfer(fg, 15*MB)
		g.Wait()
	})
	if d < est {
		t.Fatalf("contended transfer %v below contention-free estimate %v", d, est)
	}
	if d > time.Duration(2.3*float64(est)) {
		t.Fatalf("contended transfer %v above 2.3× estimate %v", d, est)
	}
}
