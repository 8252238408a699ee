package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cloud4home/internal/kv"
	"cloud4home/internal/vclock"
)

// newFaultTestbed is newDataPlaneTestbed with metadata replication on,
// so a crash loses payloads but never metadata (the paper's §III-A
// redistribution guarantee).
func newFaultTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{v: vclock.NewVirtual(epoch)}
	tb.v.Run(func() {
		tb.home = NewHome(tb.v, HomeOptions{Seed: 31, KV: kv.Options{ReplicationFactor: 2}, Config: cfg})
		var err error
		tb.atom, err = tb.home.AddNode(NodeConfig{
			Addr: "atom:9000", Machine: atomSpec("atom"),
			MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		tb.desktop, err = tb.home.AddNode(NodeConfig{
			Addr: "desktop:9000", Machine: desktopSpec(),
			MandatoryBytes: 8 * GB, VoluntaryBytes: 8 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		tb.netbook, err = tb.home.AddNode(NodeConfig{
			Addr: "netbook:9000", Machine: atomSpec("netbook"),
			MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		tb.publish()
	})
	if t.Failed() {
		t.FailNow()
	}
	return tb
}

// storeWithReplica stores payload from the atom (primary atom, replica on
// the desktop — the peer with the most voluntary space) and returns its
// metadata.
func storeWithReplica(t *testing.T, tb *testbed, name string, payload []byte) ObjectMeta {
	t.Helper()
	owner, err := tb.atom.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if _, err := owner.StoreObjectData(name, "bin", payload, StoreOptions{Blocking: true}); err != nil {
		t.Fatal(err)
	}
	meta, _, err := tb.atom.getMeta(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Replicas) != 1 || meta.Replicas[0] != tb.desktop.addr {
		t.Fatalf("replicas = %v, want the desktop", meta.Replicas)
	}
	return meta
}

func TestFallbackFetchSurvivesHolderCrash(t *testing.T) {
	tb := newFaultTestbed(t, Config{ErasureK: 1, ErasureN: 1, Fallback: true})
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	tb.run(func() {
		storeWithReplica(t, tb, "survivor.bin", payload)
		// Crash the primary holder; the netbook's fetch must fall back to
		// the desktop's replica instead of erroring.
		if err := tb.home.RemoveNode(tb.atom.addr, false); err != nil {
			t.Fatal(err)
		}
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		res, err := reader.FetchObject("survivor.bin")
		if err != nil {
			t.Fatalf("fetch after holder crash: %v", err)
		}
		if res.Source != tb.desktop.addr {
			t.Fatalf("source = %q, want the surviving replica %q", res.Source, tb.desktop.addr)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatal("fallback fetch returned wrong bytes")
		}
		if got := tb.netbook.OpStats().FetchRetries; got != 1 {
			t.Fatalf("FetchRetries = %d, want 1", got)
		}
	})
}

func TestFallbackOffPreservesPaperFailure(t *testing.T) {
	tb := newFaultTestbed(t, Config{ErasureK: 1, ErasureN: 1})
	tb.run(func() {
		storeWithReplica(t, tb, "doomed.bin", []byte("paper behaviour"))
		if err := tb.home.RemoveNode(tb.atom.addr, false); err != nil {
			t.Fatal(err)
		}
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reader.FetchObject("doomed.bin"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("zero-value Config fetch: %v, want ErrObjectNotFound", err)
		}
		if got := tb.netbook.OpStats().FetchRetries; got != 0 {
			t.Fatalf("FetchRetries = %d with faults off, want 0", got)
		}
	})
}

func TestCrashTriggersPayloadRepair(t *testing.T) {
	tb := newFaultTestbed(t, Config{ErasureK: 1, ErasureN: 1, Fallback: true, Repair: true})
	payload := []byte("repair me")
	tb.run(func() {
		storeWithReplica(t, tb, "heal.bin", payload)

		// Crash the replica holder: the atom (lowest-addressed survivor
		// with a copy) must re-replicate onto the netbook.
		if err := tb.home.RemoveNode(tb.desktop.addr, false); err != nil {
			t.Fatal(err)
		}
		meta, _, err := tb.atom.getMeta("heal.bin")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Location != tb.atom.addr {
			t.Fatalf("location = %q, want unchanged primary %q", meta.Location, tb.atom.addr)
		}
		if len(meta.Replicas) != 1 || meta.Replicas[0] != tb.netbook.addr {
			t.Fatalf("replicas after repair = %v, want the netbook", meta.Replicas)
		}
		if !tb.netbook.store.Has("heal.bin") {
			t.Fatal("netbook holds no repaired copy")
		}
		st := tb.atom.OpStats()
		if st.ObjectsRepaired != 1 || st.ReplicasRestored != 1 {
			t.Fatalf("repair counters = %d/%d, want 1/1", st.ObjectsRepaired, st.ReplicasRestored)
		}
	})
}

func TestCrashOfPrimaryPromotesReplica(t *testing.T) {
	tb := newFaultTestbed(t, Config{ErasureK: 1, ErasureN: 1, Fallback: true, Repair: true})
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(17)).Read(payload)
	tb.run(func() {
		storeWithReplica(t, tb, "promote.bin", payload)

		// Crash the primary: the desktop's replica takes over as primary
		// and restores the replica count on the netbook.
		if err := tb.home.RemoveNode(tb.atom.addr, false); err != nil {
			t.Fatal(err)
		}
		meta, _, err := tb.desktop.getMeta("promote.bin")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Location != tb.desktop.addr {
			t.Fatalf("location = %q, want promoted replica %q", meta.Location, tb.desktop.addr)
		}
		if len(meta.Replicas) != 1 || meta.Replicas[0] != tb.netbook.addr {
			t.Fatalf("replicas after repair = %v, want the netbook", meta.Replicas)
		}
		// Every fetch now succeeds at full strength again.
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		res, err := reader.FetchObject("promote.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatal("post-repair fetch returned wrong bytes")
		}
	})
}

func TestRepairOffLosesReplicaCount(t *testing.T) {
	tb := newFaultTestbed(t, Config{ErasureK: 1, ErasureN: 1, Fallback: true})
	tb.run(func() {
		storeWithReplica(t, tb, "unrepaired.bin", []byte("x"))
		if err := tb.home.RemoveNode(tb.desktop.addr, false); err != nil {
			t.Fatal(err)
		}
		meta, _, err := tb.atom.getMeta("unrepaired.bin")
		if err != nil {
			t.Fatal(err)
		}
		// Without Repair the metadata still names the dead replica and no
		// new copy appears.
		if len(meta.Replicas) != 1 || meta.Replicas[0] != tb.desktop.addr {
			t.Fatalf("replicas = %v, want the (dead) desktop still listed", meta.Replicas)
		}
		if tb.netbook.store.Has("unrepaired.bin") {
			t.Fatal("a repair copy appeared with Repair disabled")
		}
		if got := tb.atom.OpStats().ObjectsRepaired; got != 0 {
			t.Fatalf("ObjectsRepaired = %d with repair off, want 0", got)
		}
	})
}

func TestMoveInputFallsBackToSurvivingReplica(t *testing.T) {
	tb := newFaultTestbed(t, Config{ErasureK: 1, ErasureN: 1, Fallback: true})
	tb.run(func() {
		storeWithReplica(t, tb, "input.bin", []byte("process me"))
		if err := tb.home.RemoveNode(tb.atom.addr, false); err != nil {
			t.Fatal(err)
		}
		// The process-path input move must substitute the surviving
		// desktop replica for the crashed primary.
		meta, _, err := tb.netbook.getMeta("input.bin")
		if err != nil {
			t.Fatal(err)
		}
		data, moveIn, err := tb.netbook.moveInput(meta, tb.netbook.addr, nil)
		if err != nil {
			t.Fatalf("moveInput after holder crash: %v", err)
		}
		if !bytes.Equal(data, []byte("process me")) {
			t.Fatal("moveInput returned wrong bytes")
		}
		if moveIn <= 0 {
			t.Fatal("moveInput charged no movement cost")
		}
		if got := tb.netbook.OpStats().FetchRetries; got != 1 {
			t.Fatalf("FetchRetries = %d, want 1", got)
		}
	})
}
