// Package xenchan models the XenSocket-style shared-memory channel that
// carries data between an application's guest VM and the VStore++ control
// domain (dom0) on the same physical node (§IV).
//
// As in the paper: "Before every transfer, the data receiver creates a
// shared descriptor page and grant table reference which is sent to the
// sender before communication begins. The receiver allocates thirty two
// 4 KB pages. For better performance, the page size can be increased up
// to 2 MB if the devices have larger memory."
//
// The channel really moves bytes — data crosses into a per-channel
// staging buffer in ring-capacity windows, so corruption bugs would be
// caught — while the cost model charges the clock per page and per byte,
// calibrated against Table I's "Inter Domain" column (≈65 MB/s effective,
// linear in object size, an order of magnitude faster than inter-node
// transfers). The granted ring pages alias the receiver's staging buffer
// window by window, so each byte is copied exactly once; the earlier
// model copied through a separate ring array and again into a fresh
// output slice per transfer.
package xenchan

import (
	"errors"
	"fmt"
	"time"

	"cloud4home/internal/vclock"
)

// Errors returned by channel operations.
var (
	ErrClosed = errors.New("xenchan: channel closed")
)

// Config sizes the page ring and the cost model.
type Config struct {
	// PageSize is the granted page size in bytes (4 KB default, up to
	// 2 MB).
	PageSize int
	// NumPages is the ring depth (32 in the paper's prototype).
	NumPages int
	// GrantSetup is charged once per transfer for the descriptor page and
	// grant-table handshake.
	GrantSetup time.Duration
	// PerPage is the bookkeeping cost of mapping/consuming one page.
	PerPage time.Duration
	// BytesPerSec is the raw shared-memory copy rate.
	BytesPerSec float64
}

// DefaultConfig matches the paper's prototype: 32 × 4 KB pages, with rate
// constants calibrated so a 100 MB transfer costs ≈1.6 s (Table I).
func DefaultConfig() Config {
	return Config{
		PageSize:    4 << 10,
		NumPages:    32,
		GrantSetup:  150 * time.Microsecond,
		PerPage:     2 * time.Microsecond,
		BytesPerSec: 70e6,
	}
}

// HugePageConfig is the 2 MB-page variant the paper suggests for devices
// with larger memory; the page-size ablation bench compares the two.
func HugePageConfig() Config {
	c := DefaultConfig()
	c.PageSize = 2 << 20
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("xenchan: page size %d must be positive", c.PageSize)
	}
	if c.PageSize > 2<<20 {
		return fmt.Errorf("xenchan: page size %d exceeds the 2 MB grant limit", c.PageSize)
	}
	if c.NumPages <= 0 {
		return fmt.Errorf("xenchan: ring needs at least one page, got %d", c.NumPages)
	}
	if c.BytesPerSec <= 0 {
		return fmt.Errorf("xenchan: copy rate must be positive")
	}
	return nil
}

// Stats counts channel activity.
type Stats struct {
	Transfers     int
	BytesMoved    int64
	PagesConsumed int64
}

// Channel is one guest↔dom0 shared-memory channel. It is not safe for
// concurrent Transfer calls from multiple goroutines — like the paper's
// prototype, each VM domain opens its own channel.
type Channel struct {
	clock   vclock.Clock
	cfg     Config
	staging []byte // receiver-side buffer the granted pages land in
	closed  bool
	stats   Stats
}

// Open performs the descriptor/grant handshake and returns a ready
// channel. The handshake cost is charged immediately.
func Open(clock vclock.Clock, cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock.Sleep(cfg.GrantSetup)
	return &Channel{clock: clock, cfg: cfg}, nil
}

// Close releases the grant. Further transfers fail.
func (c *Channel) Close() {
	c.closed = true
	c.staging = nil
}

// Stats returns activity counters.
func (c *Channel) Stats() Stats { return c.stats }

// Transfer moves data across the domain boundary and returns the bytes as
// they arrived on the far side, plus the elapsed (charged) duration. Data
// flows in ring-capacity windows, so a transfer larger than the ring
// wraps, exactly as the real channel would — but each window's granted
// pages alias the channel's staging buffer, so every byte is copied once.
//
// The returned slice points into the per-channel staging buffer and is
// only valid until the next Transfer on the same channel; callers that
// keep the payload must copy it out.
//
// c4h:hotpath
func (c *Channel) Transfer(data []byte) ([]byte, time.Duration, error) {
	if c.closed {
		return nil, 0, ErrClosed
	}
	out := c.recvBuf(len(data))
	var pages int64
	ringCap := c.cfg.PageSize * c.cfg.NumPages
	for off := 0; off < len(data); {
		// Grant a ring's worth of pages over the staging window, let the
		// sender fill them, consume.
		n := len(data) - off
		if n > ringCap {
			n = ringCap
		}
		copy(out[off:off+n], data[off:off+n])
		off += n
		pages += int64((n + c.cfg.PageSize - 1) / c.cfg.PageSize)
	}
	d := c.charge(int64(len(data)), pages)
	c.stats.Transfers++
	c.stats.BytesMoved += int64(len(data))
	c.stats.PagesConsumed += pages
	return out, d, nil
}

// recvBuf returns the staging buffer sized for an n-byte transfer,
// growing it geometrically so steady-state transfers allocate nothing.
//
// c4h:hotpath
func (c *Channel) recvBuf(n int) []byte {
	if cap(c.staging) < n {
		newCap := 2 * cap(c.staging)
		if newCap < n {
			newCap = n
		}
		c.staging = make([]byte, newCap)
	}
	return c.staging[:n]
}

// TransferSize charges the cost of moving size bytes without materialising
// them. The experiment harness uses it for the multi-megabyte synthetic
// objects whose content is irrelevant.
//
// c4h:hotpath
func (c *Channel) TransferSize(size int64) (time.Duration, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if size < 0 {
		return 0, fmt.Errorf("xenchan: negative transfer size %d", size)
	}
	ps := int64(c.cfg.PageSize)
	pages := (size + ps - 1) / ps
	d := c.charge(size, pages)
	c.stats.Transfers++
	c.stats.BytesMoved += size
	c.stats.PagesConsumed += pages
	return d, nil
}

// Estimate predicts the cost of a transfer without performing it.
func (c *Channel) Estimate(size int64) time.Duration {
	ps := int64(c.cfg.PageSize)
	pages := (size + ps - 1) / ps
	return c.cfg.GrantSetup +
		time.Duration(pages)*c.cfg.PerPage +
		time.Duration(float64(size)/c.cfg.BytesPerSec*float64(time.Second))
}

func (c *Channel) charge(size, pages int64) time.Duration {
	d := c.cfg.GrantSetup +
		time.Duration(pages)*c.cfg.PerPage +
		time.Duration(float64(size)/c.cfg.BytesPerSec*float64(time.Second))
	c.clock.Sleep(d)
	return d
}
