package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"cloud4home/internal/vclock"
)

// Property tests on the network model's monotonicity guarantees: more
// bytes never take less time, and more contention never speeds a
// transfer up. These hold for any size the workload generators produce.

func TestPropertyTransferMonotoneInSize(t *testing.T) {
	f := func(a, b uint32) bool {
		sa := int64(a%200+1) * (1 << 18) // 256 KB .. 50 MB
		sb := int64(b%200+1) * (1 << 18)
		if sa > sb {
			sa, sb = sb, sa
		}
		v := vclock.NewVirtual(epoch)
		net := New(v, 5) // same seed: same jitter stream shape
		p := &Path{
			Resources: []*Resource{NewResource(NodeNICBps)},
			RTT:       LANRTT,
		}
		var da, db time.Duration
		v.Run(func() {
			da = net.Transfer(p, sa)
		})
		v2 := vclock.NewVirtual(epoch)
		net2 := New(v2, 5)
		v2.Run(func() {
			db = net2.Transfer(p, sb)
		})
		return da <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEstimateMonotoneInSize(t *testing.T) {
	wan := NewResource(WANDownBps)
	dst := NewResource(NodeNICBps)
	p := WANDownPath(wan, dst)
	f := func(a, b uint32) bool {
		sa := int64(a%500+1) * (1 << 16)
		sb := int64(b%500+1) * (1 << 16)
		if sa > sb {
			sa, sb = sb, sa
		}
		return EstimateTransfer(p, sa) <= EstimateTransfer(p, sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDegradeNeverSpeedsUp(t *testing.T) {
	f := func(factorRaw uint8, sizeRaw uint16) bool {
		factor := 0.05 + float64(factorRaw%90)/100 // 0.05 .. 0.94
		size := int64(sizeRaw%64+1) * (1 << 18)
		run := func(deg float64) time.Duration {
			v := vclock.NewVirtual(epoch)
			net := New(v, 11)
			r := NewResource(NodeNICBps)
			p := &Path{Resources: []*Resource{r}, RTT: LANRTT}
			if deg < 1 {
				r.Degrade(deg)
			}
			var d time.Duration
			v.Run(func() { d = net.Transfer(p, size) })
			return d
		}
		return run(factor) >= run(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyChunkForBounded(t *testing.T) {
	f := func(raw uint64) bool {
		size := int64(raw % (1 << 32))
		c := chunkFor(size)
		return c >= 64<<10 && c <= 2<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
