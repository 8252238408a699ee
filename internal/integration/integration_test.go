// Package integration exercises the whole stack end to end: eDonkey-style
// trace replay over the paper testbed, concurrent clients, churn during
// operation, and system-wide invariants (no lost acknowledged data after
// graceful departures; metadata always resolvable; accounting balanced).
package integration

import (
	"errors"
	"fmt"
	"testing"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/kv"
	"cloud4home/internal/objstore"
	"cloud4home/internal/policy"
	"cloud4home/internal/trace"
	"cloud4home/internal/vclock"
)

// replayTrace drives a generated trace through the testbed: stores from
// the owning client's node, fetches from a different node, all blocking.
func replayTrace(t *testing.T, tb *cluster.Testbed, tr *trace.Trace, pol policy.StorePolicy) {
	t.Helper()
	nodes := tb.AllNodes()
	sessions := make([]*core.Session, len(nodes))
	for i, n := range nodes {
		var err error
		sessions[i], err = n.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	created := map[int]bool{}
	for i, a := range tr.Accesses {
		f := tr.Files[a.File]
		sess := sessions[a.Client%len(sessions)]
		switch a.Kind {
		case trace.OpStore:
			if created[a.File] {
				continue // object already stored; a re-store would collide
			}
			if err := sess.CreateObject(f.Name, f.Type, f.Tags); err != nil {
				t.Fatalf("access %d: create %s: %v", i, f.Name, err)
			}
			if _, err := sess.StoreObject(f.Name, nil, f.Size,
				core.StoreOptions{Blocking: true, Policy: pol}); err != nil {
				t.Fatalf("access %d: store %s: %v", i, f.Name, err)
			}
			created[a.File] = true
		case trace.OpFetch:
			other := sessions[(a.Client+1)%len(sessions)]
			fr, err := other.FetchObject(f.Name)
			if err != nil {
				t.Fatalf("access %d: fetch %s: %v", i, f.Name, err)
			}
			if fr.Meta.Size != f.Size {
				t.Fatalf("access %d: %s size %d, want %d", i, f.Name, fr.Meta.Size, f.Size)
			}
		}
	}
}

func TestTraceReplayDefaultPolicy(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.Default(7)
	cfg.Files = 80
	cfg.Accesses = 240
	cfg.MinSize = 1 << 20
	cfg.MaxSize = 8 << 20
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		replayTrace(t, tb, tr, nil)
	})
}

func TestTraceReplayPrivacyPolicy(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1002})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.Default(8)
	cfg.Files = 40
	cfg.Accesses = 100
	cfg.MinSize = 1 << 20
	cfg.MaxSize = 4 << 20
	cfg.PrivateFraction = 0.5
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.PrivacyTypes{PrivateSuffixes: []string{".mp3"}}
	tb.Run(func() {
		replayTrace(t, tb, tr, pol)
		// Invariant: no private object's metadata points at the cloud.
		sess, err := tb.Desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		for _, f := range tr.Files {
			fr, err := sess.FetchObject(f.Name)
			if err != nil {
				continue // never stored in this truncated trace
			}
			if f.Type == "mp3" && fr.Meta.InCloud() {
				t.Errorf("private %s leaked to the cloud (%s)", f.Name, fr.Meta.Location)
			}
			if f.Type != "mp3" && !fr.Meta.InCloud() {
				t.Errorf("shareable %s stayed home (%s)", f.Name, fr.Meta.Location)
			}
		}
	})
}

func TestConcurrentClientsNoLostData(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1003})
	if err != nil {
		t.Fatal(err)
	}
	const perClient = 15
	tb.Run(func() {
		nodes := tb.AllNodes()
		g := vclock.NewGroup(tb.V)
		errCh := make(chan error, len(nodes)*perClient)
		for ci, n := range nodes {
			g.Go(func() {
				sess, err := n.OpenSession()
				if err != nil {
					errCh <- err
					return
				}
				defer sess.Close()
				for j := 0; j < perClient; j++ {
					name := fmt.Sprintf("conc/%d/%d.bin", ci, j)
					payload := []byte(fmt.Sprintf("%d-%d", ci, j))
					if _, err := sess.StoreObjectData(name, "b", payload, core.StoreOptions{Blocking: true}); err != nil {
						errCh <- fmt.Errorf("store %s: %w", name, err)
						return
					}
				}
			})
		}
		g.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
		// Every object readable from every node with the right payload.
		reader, err := tb.Desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer reader.Close()
		for ci := range nodes {
			for j := 0; j < perClient; j++ {
				name := fmt.Sprintf("conc/%d/%d.bin", ci, j)
				fr, err := reader.FetchObject(name)
				if err != nil {
					t.Errorf("lost %s: %v", name, err)
					continue
				}
				if want := fmt.Sprintf("%d-%d", ci, j); string(fr.Data) != want {
					t.Errorf("%s corrupted: %q", name, fr.Data)
				}
			}
		}
	})
}

func TestChurnDuringReplayGracefulLosesNothing(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1004})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		sess, err := tb.Desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		var names []string
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("churny/%d.bin", i)
			if _, err := sess.StoreObjectData(name, "b", []byte(fmt.Sprintf("v%d", i)),
				core.StoreOptions{Blocking: true}); err != nil {
				t.Error(err)
				return
			}
			names = append(names, name)
			// Two nodes leave gracefully mid-workload.
			if i == 10 {
				if err := tb.Home.RemoveNode(tb.Netbooks[4].Addr(), true); err != nil {
					t.Error(err)
					return
				}
			}
			if i == 20 {
				if err := tb.Home.RemoveNode(tb.Netbooks[3].Addr(), true); err != nil {
					t.Error(err)
					return
				}
			}
		}
		for i, name := range names {
			fr, err := sess.FetchObject(name)
			if err != nil {
				t.Errorf("%s lost across graceful churn: %v", name, err)
				continue
			}
			if want := fmt.Sprintf("v%d", i); string(fr.Data) != want {
				t.Errorf("%s corrupted: %q", name, fr.Data)
			}
		}
	})
}

func TestRejoinAfterDeparture(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1005})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		victim := tb.Netbooks[2].Addr()
		if err := tb.Home.RemoveNode(victim, true); err != nil {
			t.Error(err)
			return
		}
		// The same device comes back and participates immediately.
		n, err := tb.Home.AddNode(core.NodeConfig{
			Addr:           victim,
			Machine:        cluster.NetbookSpec("returned"),
			MandatoryBytes: 4 * cluster.GB,
			VoluntaryBytes: 2 * cluster.GB,
		})
		if err != nil {
			t.Errorf("rejoin: %v", err)
			return
		}
		if err := n.Monitor().PublishOnce(); err != nil {
			t.Error(err)
			return
		}
		sess, err := n.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		if _, err := sess.StoreObjectData("rejoined.bin", "b", []byte("back"), core.StoreOptions{Blocking: true}); err != nil {
			t.Errorf("store after rejoin: %v", err)
			return
		}
		other, err := tb.Desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer other.Close()
		if _, err := other.FetchObject("rejoined.bin"); err != nil {
			t.Errorf("fetch after rejoin: %v", err)
		}
	})
}

func TestBinAccountingBalancedAfterWorkload(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1006})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		sess, err := tb.Netbooks[0].OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		var stored int64
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("acct/%d.bin", i)
			size := int64((i + 1) * 100_000)
			if err := sess.CreateObject(name, "b", nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.StoreObject(name, nil, size, core.StoreOptions{Blocking: true}); err != nil {
				t.Error(err)
				return
			}
			stored += size
		}
		// Delete half.
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("acct/%d.bin", i)
			if err := sess.DeleteObject(name); err != nil {
				t.Error(err)
				return
			}
			stored -= int64((i + 1) * 100_000)
		}
		// Sum bin usage across the home; it must equal the live bytes.
		var used int64
		for _, n := range tb.AllNodes() {
			for _, bin := range []objstore.Bin{objstore.Mandatory, objstore.Voluntary} {
				u, err := n.ObjectStore().Usage(bin)
				if err != nil {
					t.Error(err)
					return
				}
				used += u.Used
			}
		}
		if used != stored {
			t.Errorf("bin accounting: %d bytes used, %d live", used, stored)
		}
	})
}

func TestMetadataConsistentFromEveryNode(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1007, KV: &kv.Options{ReplicationFactor: 1, CacheEnabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		writer, err := tb.Netbooks[0].OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer writer.Close()
		if _, err := writer.StoreObjectData("consistent.bin", "b", []byte("x"), core.StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		// Every node resolves the same location.
		var loc string
		for i, n := range tb.AllNodes() {
			sess, err := n.OpenSession()
			if err != nil {
				t.Error(err)
				return
			}
			fr, err := sess.FetchObject("consistent.bin")
			sess.Close()
			if err != nil {
				t.Errorf("node %s: %v", n.Addr(), err)
				return
			}
			if i == 0 {
				loc = fr.Meta.Location
			} else if fr.Meta.Location != loc {
				t.Errorf("node %s sees location %q, others %q", n.Addr(), fr.Meta.Location, loc)
			}
		}
	})
}

func TestFetchAfterHolderCrashReportsNotFound(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 1008})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func() {
		sess, err := tb.Netbooks[1].OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		if _, err := sess.StoreObjectData("doomed.bin", "b", []byte("x"), core.StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		if err := tb.Home.RemoveNode(tb.Netbooks[1].Addr(), false); err != nil {
			t.Error(err)
			return
		}
		reader, err := tb.Desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer reader.Close()
		if _, err := reader.FetchObject("doomed.bin"); !errors.Is(err, core.ErrObjectNotFound) {
			t.Errorf("got %v, want ErrObjectNotFound (holder crashed)", err)
		}
	})
}
