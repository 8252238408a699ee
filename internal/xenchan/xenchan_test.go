package xenchan

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cloud4home/internal/vclock"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func openDefault(t *testing.T, v *vclock.Virtual) *Channel {
	t.Helper()
	var c *Channel
	var err error
	v.Run(func() {
		c, err = Open(v, DefaultConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := HugePageConfig().Validate(); err != nil {
		t.Fatalf("huge-page config invalid: %v", err)
	}
	bad := []Config{
		{PageSize: 0, NumPages: 32, BytesPerSec: 1},
		{PageSize: 4096, NumPages: 0, BytesPerSec: 1},
		{PageSize: 4096, NumPages: 32, BytesPerSec: 0},
		{PageSize: 4 << 20, NumPages: 32, BytesPerSec: 1}, // > 2 MB grant
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTransferPreservesData(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	rng := rand.New(rand.NewSource(5))
	sizes := []int{0, 1, 100, 4096, 4097, 32 * 4096, 32*4096 + 1, 1 << 20}
	v.Run(func() {
		for _, n := range sizes {
			data := make([]byte, n)
			rng.Read(data)
			got, _, err := c.Transfer(data)
			if err != nil {
				t.Errorf("Transfer(%d bytes): %v", n, err)
				continue
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Transfer(%d bytes) corrupted payload", n)
			}
		}
	})
}

func TestTransferCostLinear(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	var d1, d10 time.Duration
	v.Run(func() {
		var err error
		d1, err = c.TransferSize(1 << 20)
		if err != nil {
			t.Error(err)
		}
		d10, err = c.TransferSize(10 << 20)
		if err != nil {
			t.Error(err)
		}
	})
	ratio := float64(d10) / float64(d1)
	if ratio < 7 || ratio > 12 {
		t.Fatalf("10 MB/1 MB cost ratio = %.2f, want ≈10", ratio)
	}
}

func TestTableOneCalibration(t *testing.T) {
	// Table I: a 100 MB inter-domain transfer costs ≈1.6 s.
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	var d time.Duration
	v.Run(func() {
		var err error
		d, err = c.TransferSize(100 << 20)
		if err != nil {
			t.Fatal(err)
		}
	})
	if d < 1200*time.Millisecond || d > 2200*time.Millisecond {
		t.Fatalf("100 MB inter-domain transfer = %v, want ≈1.6 s", d)
	}
}

func TestHugePagesFasterForLargeTransfers(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	var small, huge *Channel
	v.Run(func() {
		var err error
		small, err = Open(v, DefaultConfig())
		if err != nil {
			t.Error(err)
		}
		huge, err = Open(v, HugePageConfig())
		if err != nil {
			t.Error(err)
		}
	})
	var dSmall, dHuge time.Duration
	v.Run(func() {
		dSmall, _ = small.TransferSize(100 << 20)
		dHuge, _ = huge.TransferSize(100 << 20)
	})
	if dHuge >= dSmall {
		t.Fatalf("2 MB pages (%v) not faster than 4 KB pages (%v) at 100 MB", dHuge, dSmall)
	}
}

func TestClosedChannel(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	c.Close()
	v.Run(func() {
		if _, _, err := c.Transfer([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("Transfer on closed channel: %v, want ErrClosed", err)
		}
		if _, err := c.TransferSize(10); !errors.Is(err, ErrClosed) {
			t.Errorf("TransferSize on closed channel: %v, want ErrClosed", err)
		}
	})
}

func TestNegativeSizeRejected(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	v.Run(func() {
		if _, err := c.TransferSize(-1); err == nil {
			t.Error("negative size accepted")
		}
	})
}

func TestEstimateMatchesCharge(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	for _, size := range []int64{1 << 10, 1 << 20, 50 << 20} {
		est := c.Estimate(size)
		var actual time.Duration
		v.Run(func() {
			actual, _ = c.TransferSize(size)
		})
		if est != actual {
			t.Fatalf("Estimate(%d) = %v but charge was %v", size, est, actual)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	v.Run(func() {
		if _, _, err := c.Transfer(make([]byte, 5000)); err != nil {
			t.Error(err)
		}
		if _, err := c.TransferSize(8192); err != nil {
			t.Error(err)
		}
	})
	st := c.Stats()
	if st.Transfers != 2 {
		t.Fatalf("Transfers = %d, want 2", st.Transfers)
	}
	if st.BytesMoved != 5000+8192 {
		t.Fatalf("BytesMoved = %d, want %d", st.BytesMoved, 5000+8192)
	}
	if st.PagesConsumed != 2+2 { // 5000 B = 2 pages, 8192 B = 2 pages
		t.Fatalf("PagesConsumed = %d, want 4", st.PagesConsumed)
	}
}

func TestTransferReusesStagingBuffer(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	v.Run(func() {
		first, _, err := c.Transfer([]byte("the first payload"))
		if err != nil {
			t.Fatal(err)
		}
		buf := &first[0]
		second, _, err := c.Transfer([]byte("a second payload!"))
		if err != nil {
			t.Fatal(err)
		}
		if &second[0] != buf {
			t.Error("second transfer did not reuse the staging buffer")
		}
		if string(second) != "a second payload!" {
			t.Errorf("payload corrupted: %q", second)
		}
		// The documented contract: the previous result is dead now.
		if string(first) == "the first payload" {
			t.Error("first result survived a second transfer — copies are back")
		}
	})
}

func TestQuickRoundTrip(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	c := openDefault(t, v)
	f := func(data []byte) bool {
		var ok bool
		v.Run(func() {
			got, _, err := c.Transfer(data)
			ok = err == nil && bytes.Equal(got, data)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
