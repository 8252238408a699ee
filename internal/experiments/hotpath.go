package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
)

// HotPathConfig parameterises the fetch-coalescing measurement: what
// sharing one wire transfer — the one modeled behaviour change among the
// hot-path optimisations — buys concurrent readers of a hot object. (The
// result-preserving optimisations are no longer gates to compare: host
// cost is measured end to end by cmd/c4h-perf, and their virtual results
// are pinned by testdata/golden.)
type HotPathConfig struct {
	Seed int64
	// CoalesceClients concurrent sessions fetch the same hot object.
	CoalesceClients int
	// CoalesceSize is the hot object's size.
	CoalesceSize int64
}

// DefaultHotPath has four readers fetch one 8 MB object.
func DefaultHotPath(seed int64) HotPathConfig {
	return HotPathConfig{Seed: seed, CoalesceClients: 4, CoalesceSize: 8 * MB}
}

// CoalesceResult compares concurrent hot-object fetches with and without
// request coalescing.
type CoalesceResult struct {
	// Requests is the concurrent session count.
	Requests int
	// Coalesced counts followers that joined the leader's transfer.
	Coalesced int64
	// SoloWall/SoloFetch: every session runs its own wire transfer, all of
	// them processor-sharing the holder's NIC.
	SoloWall  time.Duration
	SoloFetch Stats
	// SharedWall/SharedFetch: one wire transfer, followers charged exactly
	// the virtual time until the leader's bytes arrive.
	SharedWall  time.Duration
	SharedFetch Stats
}

// HotPathResult is RunHotPath's comparison.
type HotPathResult struct {
	Coalesce CoalesceResult
}

// RunHotPath measures the coalescing gate: the same concurrent fetches of
// one hot object with every reader running its own transfer, then with
// followers sharing the leader's.
func RunHotPath(cfg HotPathConfig) (_ *HotPathResult, err error) {
	defer catch(&err)
	if cfg.CoalesceClients <= 0 {
		cfg.CoalesceClients = 4
	}
	if cfg.CoalesceSize <= 0 {
		cfg.CoalesceSize = 8 * MB
	}
	c := CoalesceResult{Requests: cfg.CoalesceClients}
	c.SoloWall, c.SoloFetch, _ = runCoalesceCell(cfg, false)
	c.SharedWall, c.SharedFetch, c.Coalesced = runCoalesceCell(cfg, true)
	return &HotPathResult{Coalesce: c}, nil
}

// runCoalesceCell stores one hot object on the desktop and has
// CoalesceClients sessions on one netbook fetch it near-simultaneously,
// returning the batch wall time, the fetch latencies and the reader's
// coalesced-follower count.
func runCoalesceCell(cfg HotPathConfig, coalesce bool) (wall time.Duration, fetch Stats, coalesced int64) {
	const name = "hotpath/coalesce.bin"
	durs := make([]time.Duration, cfg.CoalesceClients)
	check(scenario{
		name:  fmt.Sprintf("coalesce %v", coalesce),
		opts:  cluster.Options{Seed: cfg.Seed, CoalesceFetch: coalesce},
		setup: func(e *env) { put(e.open(e.Desktop), name, "b", nil, cfg.CoalesceSize, blocking) },
		// The readers share one netbook and start 500 µs apart.
		clients: cfg.CoalesceClients,
		at:      func(e *env, _ int) *core.Node { return e.Netbooks[1] },
		client: func(e *env, w int, sess *core.Session) {
			s0 := e.V.Now()
			must(sess.FetchObject(name))
			durs[w] = e.V.Now().Sub(s0)
		},
		fold: func(e *env) {
			wall = e.V.Now().Sub(e.start)
			fetch = Summarize(durs)
			coalesced = e.Netbooks[1].OpStats().CoalescedFetches
		},
	}.run())
	return wall, fetch, coalesced
}

// Table renders the comparison.
func (r *HotPathResult) Table() Table {
	return Table{
		Title:   "Hot path: fetch coalescing on a hot object",
		Headers: []string{"Measure", "Solo", "Coalesced"},
		Rows: [][]string{
			{fmt.Sprintf("wall (%d readers)", r.Coalesce.Requests),
				Seconds(r.Coalesce.SoloWall), Seconds(r.Coalesce.SharedWall)},
			{"fetch mean", Seconds(r.Coalesce.SoloFetch.Mean), Seconds(r.Coalesce.SharedFetch.Mean)},
			{"coalesced followers", "0", fmt.Sprintf("%d", r.Coalesce.Coalesced)},
		},
	}
}
