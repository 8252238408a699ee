package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
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
	tb, err := cluster.New(cluster.Options{
		Seed:      seed,
		Netbooks:  2 + clients,
		DataPlane: core.DataPlaneConfig{DataReplicas: 1},
		Faults:    core.FaultConfig{Fallback: true, Repair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const victimIdx = 1
	victim := tb.Netbooks[victimIdx]
	var sb strings.Builder
	var runErr error
	tb.Run(func() {
		writer, err := victim.OpenSession()
		if err != nil {
			runErr = err
			return
		}
		for _, f := range tr.Files {
			if err := writer.CreateObject(f.Name, f.Type, f.Tags); err != nil {
				runErr = err
				return
			}
			if _, err := writer.StoreObject(f.Name, nil, f.Size, core.StoreOptions{Blocking: true}); err != nil {
				runErr = err
				return
			}
		}
		writer.Close()

		apply := func(e netsim.FaultEvent) error {
			if e.Kind == netsim.FaultCrash {
				return tb.Home.RemoveNode(e.Node, false)
			}
			_, err := tb.Home.AddNode(tb.NetbookConfig(victimIdx))
			return err
		}
		lines := make([][]string, clients)
		var ferr firstErr
		var wg sync.WaitGroup
		start := tb.V.Now()
		wg.Add(1)
		tb.V.Go(func() {
			defer wg.Done()
			if err := netsim.RunFaults(tb.V, schedule(victim.Addr()), apply); err != nil {
				ferr.set(err)
			}
		})
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			tb.V.Go(func() {
				defer wg.Done()
				sess, err := tb.Netbooks[2+c].OpenSession()
				if err != nil {
					ferr.set(err)
					return
				}
				defer sess.Close()
				tb.V.Sleep(time.Duration(c+1) * 500 * time.Microsecond)
				for _, a := range tr.Accesses {
					if a.Client != c || a.Kind != trace.OpFetch {
						continue
					}
					if wait := start.Add(a.At).Sub(tb.V.Now()); wait > 0 {
						tb.V.Sleep(wait)
					}
					s0 := tb.V.Now()
					_, err := sess.FetchObject(tr.Files[a.File].Name)
					lines[c] = append(lines[c], fmt.Sprintf("c%d f%d %dns fail=%v",
						c, a.File, tb.V.Now().Sub(s0), err != nil))
				}
			})
		}
		tb.V.Block(wg.Wait)
		runErr = ferr.get()
		for _, cl := range lines {
			for _, l := range cl {
				sb.WriteString(l)
				sb.WriteByte('\n')
			}
		}
		fmt.Fprintf(&sb, "end=%d\n", tb.V.Now().UnixNano())
		for _, n := range tb.Home.Nodes() {
			st := n.OpStats()
			fmt.Fprintf(&sb, "%s retries=%d repairs=%d restored=%d\n",
				n.Addr(), st.FetchRetries, st.ObjectsRepaired, st.ReplicasRestored)
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
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
