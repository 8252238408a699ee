package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/netsim"
	"cloud4home/internal/trace"
)

// randomFaultSchedule derives a crash/rejoin script for the victim from
// its own RNG: one or two crash+rejoin pairs at random offsets inside the
// replay window, always alternating so every event is applicable.
func randomFaultSchedule(rng *rand.Rand, victim string) netsim.FaultSchedule {
	var events []netsim.FaultEvent
	at := time.Duration(0)
	pairs := 1 + rng.Intn(2)
	for p := 0; p < pairs; p++ {
		at += 50*time.Millisecond + time.Duration(rng.Int63n(int64(600*time.Millisecond)))
		events = append(events, netsim.FaultEvent{At: at, Node: victim, Kind: netsim.FaultCrash})
		at += 50*time.Millisecond + time.Duration(rng.Int63n(int64(600*time.Millisecond)))
		events = append(events, netsim.FaultEvent{At: at, Node: victim, Kind: netsim.FaultRejoin})
	}
	return netsim.FaultSchedule{Events: events}
}

// faultReplayDigest replays a fetch trace under the given fault schedule
// and renders everything observable — every sample's virtual latency and
// outcome, the final clock reading, and the cluster's fault counters —
// into one string for exact comparison.
func faultReplayDigest(t *testing.T, seed int64, clients int, tr *trace.Trace, schedule func(victim string) netsim.FaultSchedule) string {
	t.Helper()
	var sb strings.Builder
	err := replay("fault replay", cluster.Options{
		Seed:      seed,
		Netbooks:  2 + clients,
		DataPlane: core.DataPlaneConfig{DataReplicas: 1},
		Faults:    core.FaultConfig{Fallback: true, Repair: true},
	}, tr, clients, schedule, func(e *env, samples [][]fetchSample) {
		for c, cs := range samples {
			for _, s := range cs {
				fmt.Fprintf(&sb, "c%d f%d %dns fail=%v\n", c, s.file, s.d, s.failed)
			}
		}
		fmt.Fprintf(&sb, "end=%d\n", e.V.Now().UnixNano())
		for _, n := range e.Home.Nodes() {
			st := n.OpStats()
			fmt.Fprintf(&sb, "%s retries=%d repairs=%d restored=%d\n",
				n.Addr(), st.FetchRetries, st.ObjectsRepaired, st.ReplicasRestored)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFaultReplayRepeatable is the determinism detector for the
// crash/rejoin path: for several randomly drawn fault schedules (crashes
// and rejoins of a payload holder mid-replay), five runs of the same
// simulation must produce the same output exactly — every fetch latency,
// every failure, the final clock, and all fault counters. Crash and
// rejoin go through RemoveNode → Flush → Monitor.Stop, both joins on the
// virtual clock; a join that yields the clock without parking (the
// vclock.Virtual.Block hazard) shows up here as a run that differs from
// run 1, most readily under -race.
func TestFaultReplayRepeatable(t *testing.T) {
	for _, schedSeed := range []int64{1, 42, 2011} {
		schedSeed := schedSeed
		t.Run(fmt.Sprintf("schedule-%d", schedSeed), func(t *testing.T) {
			tr, err := trace.Generate(trace.Config{
				Seed:     schedSeed,
				Clients:  2,
				Files:    6,
				Accesses: 28,
				MinSize:  128 * 1024,
				MaxSize:  512 * 1024,
				MeanGap:  60 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The schedule must be identical across runs, so rebuild it
			// from a fresh RNG each run instead of sharing stateful draws.
			schedule := func(victim string) netsim.FaultSchedule {
				return randomFaultSchedule(rand.New(rand.NewSource(schedSeed)), victim)
			}
			want := faultReplayDigest(t, schedSeed, 2, tr, schedule)
			for run := 2; run <= 5; run++ {
				got := faultReplayDigest(t, schedSeed, 2, tr, schedule)
				if got != want {
					t.Fatalf("run %d diverged from run 1:\n--- run 1 ---\n%s--- run %d ---\n%s",
						run, want, run, got)
				}
			}
		})
	}
}
