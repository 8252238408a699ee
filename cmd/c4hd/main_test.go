package main

import (
	"reflect"
	"testing"
	"time"

	"cloud4home/internal/core"
	"cloud4home/internal/kv"
	"cloud4home/internal/vclock"
)

// built is what building the default home left behind.
type built struct {
	took time.Duration // virtual time
	ops  []core.OpStats
	kv   kv.Stats
}

// buildDefault builds the home the default flags describe on an unpaced
// clock of its own.
func buildDefault(t *testing.T) built {
	t.Helper()
	epoch := time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := vclock.NewVirtual(epoch)
	var s built
	var err error
	clock.Run(func() {
		var home *core.Home
		if home, err = buildHome(clock); err != nil {
			return
		}
		s.took = clock.Now().Sub(epoch)
		for _, n := range home.Nodes() {
			s.ops = append(s.ops, n.OpStats())
		}
		s.kv = *home.KV().Stats()
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildHomeDeterministic: set-up is a function of the flags alone.
// Two builds of the default home, each on an unpaced clock of its own,
// end at the same virtual instant with the same node and kv counters,
// and neither waits on the wall clock for its modeled time.
func TestBuildHomeDeterministic(t *testing.T) {
	t0 := time.Now()
	a := buildDefault(t)
	host := time.Since(t0)
	b := buildDefault(t)
	if len(a.ops) != *netbooks+1 {
		t.Fatalf("built %d nodes, want %d netbooks and the desktop", len(a.ops), *netbooks)
	}
	if a.took <= 0 || a.kv.PutOps == 0 {
		t.Fatalf("set-up took %v of virtual time and made %d kv puts; want both positive", a.took, a.kv.PutOps)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two builds of the default home differ:\n%+v\n%+v", a, b)
	}
	if host >= a.took {
		t.Fatalf("set-up took %v on the host, no less than its %v of modeled time: it waited on the wall clock", host, a.took)
	}
}
