package netsim

import (
	"fmt"
	"time"

	"cloud4home/internal/detrand"
)

// This file provides the concurrent-transfer helpers behind the striped
// replica fetch and the pulls that watch their wire chunk by chunk, for
// a holder's death or to feed an overlapped first service step. Rather
// than spawning one goroutine per transfer (whose interleaving would
// depend on the Go scheduler), TransferSet interleaves all member
// transfers in a single nested event loop driven by the calling
// goroutine: resources are held per member so concurrent foreign
// transfers see the contention, every chunk completion is a clock Sleep,
// and all randomness is drawn in a fixed order — so the same seed gives
// a bit-identical schedule on the virtual clock.

// TransferReq describes one member of a concurrent transfer set. Its
// chunks are the wire's own scheduling granularity (chunkFor).
type TransferReq struct {
	// Path the member crosses; members may share resources, in which
	// case processor sharing divides the capacity between them.
	Path *Path
	// Size is the member's payload in bytes.
	Size int64
	// OnChunk, if non-nil, runs in the event loop each time a chunk of
	// this member finishes crossing the wire, with the bytes delivered.
	// The clock stands at the chunk's completion instant.
	OnChunk func(moved int64)
	// Cancel, if non-nil, is polled at chunk boundaries; returning true
	// abandons the member's remaining bytes (a replica holder crashing
	// mid-stripe). Delivered chunks stay delivered.
	Cancel func() bool
}

// TransferStatus reports one member's outcome.
type TransferStatus struct {
	// Elapsed is the member's start→finish wall time (including the
	// shared setup/latency phase).
	Elapsed time.Duration
	// Moved is how many bytes actually crossed the wire.
	Moved int64
	// Aborted reports whether Cancel cut the member short.
	Aborted bool
}

// stripe is the event-loop state of one in-flight member.
type stripe struct {
	req       TransferReq
	rng       *detrand.Rand
	chunk     int64
	remaining int64
	moved     int64
	dataTime  time.Duration // payload-moving time, for the shaping model
	window    int64         // slow-start window; 0 once in bulk phase
	readyAt   time.Time     // completion instant of the pending event
	pending   int64         // bytes completing at readyAt (0 = setup)
	pendDur   time.Duration // duration of the pending event
	done      bool
	aborted   bool
	start     time.Time
	finish    time.Time
}

// rateFor returns the processor-shared rate available to the stripe now.
func (st *stripe) rateFor() float64 {
	p := st.req.Path
	rate := 0.0
	for i, r := range p.Resources {
		if s := r.share(); i == 0 || s < rate {
			rate = s
		}
	}
	if rate <= 0 {
		rate = 1 // fully degraded link: crawl rather than divide by zero
	}
	if p.Shaping != nil && st.dataTime > p.Shaping.After {
		rate *= p.Shaping.RateFactor
	}
	return rate
}

// scheduleNext computes the stripe's next event from the current instant,
// drawing jitter in the same order Transfer would.
func (st *stripe) scheduleNext(now time.Time) {
	p := st.req.Path
	send := st.remaining
	var d time.Duration
	if st.window > 0 && st.window < p.SlowStart.MaxWindow {
		// Slow-start round: max(RTT, send/rate), window doubles.
		if send > st.window {
			send = st.window
		}
		rt := time.Duration(float64(p.RTT) * jitter(st.rng.Rand, p.Jitter))
		bw := time.Duration(float64(send) / st.rateFor() * float64(time.Second))
		d = rt
		if bw > d {
			d = bw
		}
		st.window *= 2
	} else {
		if send > st.chunk {
			send = st.chunk
		}
		d = time.Duration(float64(send) / st.rateFor() * float64(time.Second) * jitter(st.rng.Rand, p.Jitter))
	}
	st.pending = send
	st.pendDur = d
	st.readyAt = now.Add(d)
}

// TransferSet moves the requests concurrently, as parallel transfers
// sharing the network, and returns each member's outcome plus the wall
// time of the whole set (start → last completion). A single-member set
// behaves exactly like Transfer. Empty sets cost nothing.
func (n *Network) TransferSet(reqs []TransferReq) ([]TransferStatus, time.Duration, error) {
	if len(reqs) == 0 {
		return nil, 0, nil
	}
	for i, r := range reqs {
		if r.Path == nil {
			return nil, 0, fmt.Errorf("netsim: transfer set member %d has no path", i)
		}
		if err := r.Path.Validate(); err != nil {
			return nil, 0, err
		}
	}

	start := n.clock.Now()
	stripes := make([]*stripe, len(reqs))
	// Draw every member's RNG stream up front, in index order, so the
	// schedule does not depend on who reaches the counter first.
	for i, r := range reqs {
		st := &stripe{req: r, rng: n.rng(), chunk: chunkFor(r.Size), remaining: r.Size, start: start}
		for _, res := range r.Path.Resources {
			res.acquire()
		}
		// Setup + first-byte latency is the first event; zero-byte members
		// degrade to a bare message.
		st.pendDur = r.Path.Setup + time.Duration(float64(r.Path.RTT/2)*jitter(st.rng.Rand, r.Path.Jitter))
		st.readyAt = start.Add(st.pendDur)
		if r.Path.SlowStart != nil {
			st.window = r.Path.SlowStart.InitWindow
		}
		stripes[i] = st
	}

	release := func(st *stripe) {
		for _, res := range st.req.Path.Resources {
			res.release()
		}
		putRNG(st.rng)
		st.rng = nil
	}

	now := start
	for {
		// Earliest pending event, lowest index on ties.
		var next *stripe
		for _, st := range stripes {
			if st.done {
				continue
			}
			if next == nil || st.readyAt.Before(next.readyAt) {
				next = st
			}
		}
		if next == nil {
			break
		}
		if d := next.readyAt.Sub(now); d > 0 {
			n.clock.Sleep(d)
		}
		now = next.readyAt

		if next.pending > 0 {
			next.moved += next.pending
			next.remaining -= next.pending
			next.dataTime += next.pendDur
			if next.req.OnChunk != nil {
				next.req.OnChunk(next.pending)
			}
		}
		switch {
		case next.remaining <= 0:
			next.done, next.finish = true, now
			release(next)
		case next.req.Cancel != nil && next.req.Cancel():
			next.done, next.aborted, next.finish = true, true, now
			release(next)
		default:
			next.scheduleNext(now)
		}
	}

	out := make([]TransferStatus, len(stripes))
	last := start
	for i, st := range stripes {
		out[i] = TransferStatus{Elapsed: st.finish.Sub(start), Moved: st.moved, Aborted: st.aborted}
		// Traffic() sees each member as Transfer would: the bytes that
		// crossed the wire, or a bare message for a zero-byte member.
		if st.req.Size <= 0 {
			n.msgCount++
		} else {
			n.xferCount++
			n.xferBytes += st.moved
		}
		if st.finish.After(last) {
			last = st.finish
		}
	}
	return out, last.Sub(start), nil
}

// MessageAll charges the delivery of k concurrent control messages over
// the same path — a replica-set broadcast. The messages overlap, so the
// cost is the slowest one rather than the sum; all jitter comes from one
// stream, keeping the broadcast deterministic regardless of caller
// concurrency.
func (n *Network) MessageAll(p *Path, k int) time.Duration {
	if k <= 0 {
		return 0
	}
	n.msgCount += int64(k)
	rng := n.rng()
	var max time.Duration
	for i := 0; i < k; i++ {
		d := time.Duration(float64(p.RTT/2) * jitter(rng.Rand, p.Jitter))
		if d > max {
			max = d
		}
	}
	putRNG(rng)
	n.clock.Sleep(max)
	return max
}
