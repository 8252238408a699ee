package xenchan

import (
	"testing"
	"time"

	"cloud4home/internal/vclock"
)

// The channel benches run on a virtual clock so they measure the data
// path (page-granular copies), not the simulated sleeps.

// benchChannel opens a channel with cfg and runs loop on it as the
// virtual clock's only actor.
func benchChannel(b *testing.B, cfg Config, loop func(c *Channel)) {
	b.Helper()
	v := vclock.NewVirtual(time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC))
	v.Run(func() {
		c, err := Open(v, cfg)
		if err != nil {
			b.Fatal(err)
		}
		loop(c)
	})
}

func BenchmarkTransfer64KB(b *testing.B) {
	benchChannel(b, DefaultConfig(), func(c *Channel) {
		data := make([]byte, 64<<10)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Transfer(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTransfer1MBHugePages(b *testing.B) {
	benchChannel(b, HugePageConfig(), func(c *Channel) {
		data := make([]byte, 1<<20)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Transfer(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTransferSizeCostOnly(b *testing.B) {
	benchChannel(b, DefaultConfig(), func(c *Channel) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.TransferSize(100 << 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}
