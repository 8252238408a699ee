package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cloud4home/internal/kv"
	"cloud4home/internal/vclock"
)

// newDataPlaneTestbed is the standard three-node testbed on a home with
// the given config.
func newDataPlaneTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{v: vclock.NewVirtual(epoch)}
	tb.v.Run(func() {
		tb.home = NewHome(tb.v, HomeOptions{Seed: 31, KV: kv.Options{CacheEnabled: true}, Config: cfg})
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

func TestStripedFetchReturnsCorrectBytes(t *testing.T) {
	tb := newDataPlaneTestbed(t, Config{StripedFetch: true, ErasureK: 1, ErasureN: 1})
	payload := make([]byte, 3<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	tb.run(func() {
		owner, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.StoreObjectData("striped.bin", "bin", payload, StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		res, err := reader.FetchObject("striped.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.Source, "striped:") {
			t.Fatalf("source = %q, want striped fetch", res.Source)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatal("striped fetch corrupted the payload")
		}
		if res.Breakdown.InterNode <= 0 {
			t.Fatalf("breakdown %+v has no inter-node phase", res.Breakdown)
		}
	})
}

func TestStripedFetchCrashMidStripeFallsBack(t *testing.T) {
	tb := newDataPlaneTestbed(t, Config{StripedFetch: true, ErasureK: 1, ErasureN: 1})
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(11)).Read(payload)
	tb.run(func() {
		owner, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.StoreObjectData("crashy.bin", "bin", payload, StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		meta, _, err := tb.atom.getMeta("crashy.bin")
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Replicas) != 1 || meta.Replicas[0] != tb.desktop.addr {
			t.Fatalf("replicas = %v, want the desktop (most voluntary space)", meta.Replicas)
		}

		// Crash the replica holder while the stripes are in flight: an
		// 8 MB striped fetch takes ≈1 s of wire time, so 300 ms is
		// mid-transfer.
		g := vclock.NewGroup(tb.v)
		g.Go(func() {
			tb.v.Sleep(300 * time.Millisecond)
			if err := tb.home.RemoveNode(tb.desktop.addr, false); err != nil {
				t.Error(err)
			}
		})
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		res, err := reader.FetchObject("crashy.bin")
		g.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "striped:"+tb.atom.addr {
			t.Fatalf("source = %q, want fallback to the surviving atom", res.Source)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatal("fallback fetch returned wrong bytes")
		}
	})
}

func TestCacheHitServesAtNearLocalLatency(t *testing.T) {
	tb := newDataPlaneTestbed(t, Config{CacheBytes: 256 << 20})
	tb.run(func() {
		owner, err := tb.desktop.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.StoreObjectData("hot.bin", "bin", []byte("cache me if you can"), StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		first, err := reader.FetchObject("hot.bin")
		if err != nil {
			t.Fatal(err)
		}
		if first.Source != tb.desktop.addr {
			t.Fatalf("first fetch source %q, want the desktop", first.Source)
		}
		second, err := reader.FetchObject("hot.bin")
		if err != nil {
			t.Fatal(err)
		}
		if second.Source != "cache:"+tb.netbook.addr {
			t.Fatalf("second fetch source %q, want the dom0 cache", second.Source)
		}
		if !bytes.Equal(second.Data, first.Data) {
			t.Fatal("cache returned different bytes")
		}
		if second.Breakdown.InterNode != 0 {
			t.Fatalf("cache hit charged inter-node time %v", second.Breakdown.InterNode)
		}
		st := tb.netbook.OpStats()
		if st.CacheHits != 1 || st.CacheMisses != 1 {
			t.Fatalf("cache counters hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
		}
	})
}

func TestCacheInvalidatedOnOverwriteAndDelete(t *testing.T) {
	tb := newDataPlaneTestbed(t, Config{CacheBytes: 256 << 20})
	tb.run(func() {
		owner, err := tb.desktop.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.StoreObjectData("mut.bin", "bin", []byte("version one"), StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reader.FetchObject("mut.bin"); err != nil {
			t.Fatal(err)
		}

		// Overwriting relocates the object (the original name still exists
		// at the desktop, so placement falls through to a peer) and must
		// purge every dom0 cache of the old payload.
		if _, err := owner.StoreObjectData("mut.bin", "bin", []byte("version TWO"), StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		res, err := reader.FetchObject("mut.bin")
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(res.Source, "cache:") {
			t.Fatalf("fetch after overwrite served stale cache (source %q)", res.Source)
		}
		if !bytes.Equal(res.Data, []byte("version TWO")) {
			t.Fatalf("fetch after overwrite returned %q", res.Data)
		}

		// Delete must purge the caches too: a fetch afterwards fails
		// instead of resurrecting the payload from a dom0 cache.
		if err := owner.DeleteObject("mut.bin"); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.FetchObject("mut.bin"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("fetch after delete: %v, want ErrObjectNotFound", err)
		}
	})
}

func TestDeleteRemovesReplicaCopies(t *testing.T) {
	tb := newDataPlaneTestbed(t, Config{ErasureK: 1, ErasureN: 2})
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.StoreObjectData("gone.bin", "bin", []byte("short-lived"), StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		meta, _, err := tb.atom.getMeta("gone.bin")
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Replicas) == 0 {
			t.Fatal("no replicas placed")
		}
		if err := sess.DeleteObject("gone.bin"); err != nil {
			t.Fatal(err)
		}
		for _, n := range tb.home.Nodes() {
			if n.store.Has("gone.bin") {
				t.Fatalf("node %s still holds a deleted object", n.addr)
			}
		}
	})
}

func TestFetchServedByLocalReplica(t *testing.T) {
	tb := newDataPlaneTestbed(t, Config{StripedFetch: true, ErasureK: 1, ErasureN: 2})
	tb.run(func() {
		owner, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.StoreObjectData("near.bin", "bin", []byte("right here"), StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		// With two replicas across three nodes, the netbook holds a copy:
		// its fetch never touches the wire.
		reader, err := tb.netbook.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		res, err := reader.FetchObject("near.bin")
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != tb.netbook.addr {
			t.Fatalf("source %q, want the local replica", res.Source)
		}
		if res.Breakdown.InterNode != 0 {
			t.Fatalf("local replica fetch charged inter-node time %v", res.Breakdown.InterNode)
		}
		if !bytes.Equal(res.Data, []byte("right here")) {
			t.Fatalf("got %q", res.Data)
		}
	})
}
