package experiments

import (
	"fmt"
	"sync"
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
func RunHotPath(cfg HotPathConfig) (*HotPathResult, error) {
	if cfg.CoalesceClients <= 0 {
		cfg.CoalesceClients = 4
	}
	if cfg.CoalesceSize <= 0 {
		cfg.CoalesceSize = 8 * MB
	}
	res := &HotPathResult{}
	res.Coalesce.Requests = cfg.CoalesceClients
	solo, err := runCoalesceCell(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("coalesce off: %w", err)
	}
	res.Coalesce.SoloWall, res.Coalesce.SoloFetch = solo.wall, solo.fetch
	shared, err := runCoalesceCell(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("coalesce on: %w", err)
	}
	res.Coalesce.SharedWall, res.Coalesce.SharedFetch = shared.wall, shared.fetch
	res.Coalesce.Coalesced = shared.coalesced
	return res, nil
}

type coalesceCell struct {
	wall      time.Duration
	fetch     Stats
	coalesced int64
}

// runCoalesceCell stores one hot object on the desktop and has
// CoalesceClients sessions on one netbook fetch it near-simultaneously
// (staggered 500 µs apart so the run is deterministic).
func runCoalesceCell(cfg HotPathConfig, coalesce bool) (coalesceCell, error) {
	tb, err := cluster.New(cluster.Options{Seed: cfg.Seed, CoalesceFetch: coalesce})
	if err != nil {
		return coalesceCell{}, err
	}
	const name = "hotpath/coalesce.bin"
	var cell coalesceCell
	var runErr error
	tb.Run(func() {
		writer, err := tb.Desktop.OpenSession()
		if err != nil {
			runErr = err
			return
		}
		defer writer.Close()
		if err := writer.CreateObject(name, "b", nil); err != nil {
			runErr = err
			return
		}
		if _, err := writer.StoreObject(name, nil, cfg.CoalesceSize, core.StoreOptions{Blocking: true}); err != nil {
			runErr = err
			return
		}
		reader := tb.Netbooks[1]
		durs := make([]time.Duration, cfg.CoalesceClients)
		var ferr firstErr
		var wg sync.WaitGroup
		start := tb.V.Now()
		for w := 0; w < cfg.CoalesceClients; w++ {
			w := w
			wg.Add(1)
			tb.V.Go(func() {
				defer wg.Done()
				sess, err := reader.OpenSession()
				if err != nil {
					ferr.set(err)
					return
				}
				defer sess.Close()
				tb.V.Sleep(time.Duration(w) * 500 * time.Microsecond)
				s0 := tb.V.Now()
				if _, err := sess.FetchObject(name); err != nil {
					ferr.set(err)
					return
				}
				durs[w] = tb.V.Now().Sub(s0)
			})
		}
		tb.V.Block(wg.Wait)
		runErr = ferr.get()
		cell.wall = tb.V.Now().Sub(start)
		cell.fetch = Summarize(durs)
		cell.coalesced = reader.OpStats().CoalescedFetches
	})
	if runErr != nil {
		return coalesceCell{}, runErr
	}
	return cell, nil
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
