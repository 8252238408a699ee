package kv

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cloud4home/internal/ids"
	"cloud4home/internal/overlay"
)

func buildStore(t *testing.T, n int, opts Options) (*Store, *overlay.Mesh, []ids.ID) {
	t.Helper()
	wire := overlay.FreeWire{}
	mesh := overlay.NewMesh(wire)
	st := New(mesh, wire, opts)
	var nodeIDs []ids.ID
	for i := 0; i < n; i++ {
		r, err := mesh.Join(fmt.Sprintf("192.168.1.%d:7000", i+1))
		if err != nil {
			t.Fatal(err)
		}
		st.Attach(r.Self().ID)
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	return st, mesh, nodeIDs
}

func TestPutGetRoundTrip(t *testing.T) {
	st, _, nodes := buildStore(t, 6, Options{})
	key := ids.HashString("obj/movie.avi")
	data := []byte(`{"location":"node-3","size":1048576}`)
	pr, err := st.Put(nodes[0], key, data, Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != 1 {
		t.Fatalf("first put version = %d, want 1", pr.Version)
	}
	for _, from := range nodes {
		gr, err := st.Get(from, key)
		if err != nil {
			t.Fatalf("Get from %s: %v", from, err)
		}
		if !bytes.Equal(gr.Value.Data, data) {
			t.Fatalf("Get from %s returned %q, want %q", from, gr.Value.Data, data)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	st, _, nodes := buildStore(t, 3, Options{})
	_, err := st.Get(nodes[0], ids.HashString("nothing"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestDetachedNodeRejected(t *testing.T) {
	st, mesh, _ := buildStore(t, 2, Options{})
	r, err := mesh.Join("stranger:1")
	if err != nil {
		t.Fatal(err)
	}
	// Joined the mesh but never Attach()ed to the store.
	if _, err := st.Put(r.Self().ID, 1, nil, Overwrite); !errors.Is(err, ErrDetached) {
		t.Fatalf("got %v, want ErrDetached", err)
	}
	if _, err := st.Get(r.Self().ID, 1); !errors.Is(err, ErrDetached) {
		t.Fatalf("got %v, want ErrDetached", err)
	}
}

func TestOverwritePolicyReplacesAndBumpsVersion(t *testing.T) {
	st, _, nodes := buildStore(t, 4, Options{})
	key := ids.HashString("k")
	if _, err := st.Put(nodes[0], key, []byte("v1"), Overwrite); err != nil {
		t.Fatal(err)
	}
	pr, err := st.Put(nodes[1], key, []byte("v2"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 {
		t.Fatalf("overwrite version = %d, want 2", pr.Version)
	}
	chain, _, err := st.GetAll(nodes[2], key)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || string(chain[0].Data) != "v2" {
		t.Fatalf("chain after overwrite = %v, want single v2", chain)
	}
}

func TestChainPolicyKeepsVersions(t *testing.T) {
	st, _, nodes := buildStore(t, 4, Options{})
	key := ids.HashString("versioned")
	for i := 1; i <= 3; i++ {
		pr, err := st.Put(nodes[0], key, []byte(fmt.Sprintf("v%d", i)), Chain)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Version != i {
			t.Fatalf("chain put %d assigned version %d", i, pr.Version)
		}
	}
	chain, _, err := st.GetAll(nodes[1], key)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3", len(chain))
	}
	for i, v := range chain {
		if want := fmt.Sprintf("v%d", i+1); string(v.Data) != want {
			t.Fatalf("chain[%d] = %q, want %q", i, v.Data, want)
		}
	}
	// Get returns the latest version.
	gr, err := st.Get(nodes[2], key)
	if err != nil {
		t.Fatal(err)
	}
	if string(gr.Value.Data) != "v3" || gr.Value.Version != 3 {
		t.Fatalf("latest = %q v%d, want v3", gr.Value.Data, gr.Value.Version)
	}
}

func TestErrorIfExistsPolicy(t *testing.T) {
	st, _, nodes := buildStore(t, 3, Options{})
	key := ids.HashString("unique")
	if _, err := st.Put(nodes[0], key, []byte("a"), ErrorIfExists); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(nodes[1], key, []byte("b"), ErrorIfExists); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v, want ErrExists", err)
	}
	gr, err := st.Get(nodes[2], key)
	if err != nil {
		t.Fatal(err)
	}
	if string(gr.Value.Data) != "a" {
		t.Fatal("failed ErrorIfExists put must not modify the value")
	}
}

func TestDelete(t *testing.T) {
	st, _, nodes := buildStore(t, 5, Options{ReplicationFactor: 2, CacheEnabled: true})
	key := ids.HashString("condemned")
	if _, err := st.Put(nodes[0], key, []byte("x"), Overwrite); err != nil {
		t.Fatal(err)
	}
	// Warm caches everywhere.
	for _, from := range nodes {
		if _, err := st.Get(from, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(nodes[1], key); err != nil {
		t.Fatal(err)
	}
	for _, from := range nodes {
		if _, err := st.Get(from, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get from %s after delete: %v, want ErrNotFound", from, err)
		}
	}
	// Double delete reports not found.
	if err := st.Delete(nodes[0], key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v, want ErrNotFound", err)
	}
}

func TestPathCachingServesRepeatLookups(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{CacheEnabled: true})
	key := ids.HashString("hot-object")
	if _, err := st.Put(nodes[0], key, []byte("data"), Overwrite); err != nil {
		t.Fatal(err)
	}
	// Find a node whose first lookup takes hops.
	var requester ids.ID
	for _, n := range nodes {
		gr, err := st.Get(n, key)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Hops > 0 {
			requester = n
			break
		}
	}
	if requester == 0 {
		t.Skip("topology gave every node a local copy; nothing to test")
	}
	gr, err := st.Get(requester, key)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Hops != 0 || !gr.FromCache {
		t.Fatalf("repeat lookup: hops=%d fromCache=%v, want 0/true", gr.Hops, gr.FromCache)
	}
}

func TestCacheDisabledNeverCaches(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{CacheEnabled: false})
	key := ids.HashString("cold-object")
	if _, err := st.Put(nodes[0], key, []byte("data"), Overwrite); err != nil {
		t.Fatal(err)
	}
	var requester ids.ID
	var firstHops int
	for _, n := range nodes {
		gr, err := st.Get(n, key)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Hops > 0 {
			requester, firstHops = n, gr.Hops
			break
		}
	}
	if requester == 0 {
		t.Skip("no multi-hop requester found")
	}
	gr, err := st.Get(requester, key)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Hops != firstHops {
		t.Fatalf("without caching, repeat lookup hops = %d, want %d", gr.Hops, firstHops)
	}
}

func TestCacheInvalidatedOnUpdate(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{CacheEnabled: true})
	key := ids.HashString("mutable")
	if _, err := st.Put(nodes[0], key, []byte("old"), Overwrite); err != nil {
		t.Fatal(err)
	}
	// Warm every node's cache.
	for _, n := range nodes {
		if _, err := st.Get(n, key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Put(nodes[3], key, []byte("new"), Overwrite); err != nil {
		t.Fatal(err)
	}
	// Every node, cached or not, must now see the new value.
	for _, n := range nodes {
		gr, err := st.Get(n, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(gr.Value.Data) != "new" {
			t.Fatalf("node %s sees stale %q after update", n, gr.Value.Data)
		}
	}
}

func TestReplicationSurvivesCrash(t *testing.T) {
	st, mesh, nodes := buildStore(t, 6, Options{ReplicationFactor: 2})
	keys := make([]ids.ID, 40)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf("replobj-%d", i))
		if _, err := st.Put(nodes[i%len(nodes)], keys[i], []byte(fmt.Sprintf("val-%d", i)), Overwrite); err != nil {
			t.Fatal(err)
		}
	}
	// Crash two nodes (abrupt: no handover).
	for _, victim := range nodes[:2] {
		if err := mesh.Fail(victim); err != nil {
			t.Fatal(err)
		}
		st.Detach(victim)
	}
	for i, key := range keys {
		gr, err := st.Get(nodes[3], key)
		if err != nil {
			t.Fatalf("key %d lost after crash: %v", i, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(gr.Value.Data) != want {
			t.Fatalf("key %d corrupted: %q", i, gr.Value.Data)
		}
	}
}

func TestNoReplicationLosesDataOnCrash(t *testing.T) {
	// Negative control for the replication ablation: with factor 0, a
	// crash of the owner loses the key.
	st, mesh, nodes := buildStore(t, 6, Options{ReplicationFactor: 0})
	lost := 0
	var keys []ids.ID
	for i := 0; i < 40; i++ {
		k := ids.HashString(fmt.Sprintf("fragile-%d", i))
		if _, err := st.Put(nodes[0], k, []byte("x"), Overwrite); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	victim := nodes[1]
	if err := mesh.Fail(victim); err != nil {
		t.Fatal(err)
	}
	st.Detach(victim)
	for _, k := range keys {
		if _, err := st.Get(nodes[2], k); errors.Is(err, ErrNotFound) {
			lost++
		}
	}
	if lost == 0 {
		t.Skip("victim owned no keys in this topology; nothing to verify")
	}
	t.Logf("lost %d/40 keys with replication disabled (expected non-zero)", lost)
}

func TestGracefulDepartureKeepsAllData(t *testing.T) {
	st, _, nodes := buildStore(t, 6, Options{ReplicationFactor: 0})
	var keys []ids.ID
	for i := 0; i < 60; i++ {
		k := ids.HashString(fmt.Sprintf("durable-%d", i))
		if _, err := st.Put(nodes[0], k, []byte(fmt.Sprintf("v%d", i)), Overwrite); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Even with replication off, a graceful leave redistributes keys.
	if err := st.Depart(nodes[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Depart(nodes[2]); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		gr, err := st.Get(nodes[0], k)
		if err != nil {
			t.Fatalf("key %d lost after graceful departures: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(gr.Value.Data) != want {
			t.Fatalf("key %d corrupted: %q", i, gr.Value.Data)
		}
	}
}

func TestJoinHandOverMovesOwnership(t *testing.T) {
	st, mesh, nodes := buildStore(t, 3, Options{})
	var keys []ids.ID
	for i := 0; i < 60; i++ {
		k := ids.HashString(fmt.Sprintf("handover-%d", i))
		if _, err := st.Put(nodes[0], k, []byte("v"), Overwrite); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// New nodes join; they must be able to serve keys they now own.
	for i := 0; i < 3; i++ {
		r, err := mesh.Join(fmt.Sprintf("late-%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		st.Attach(r.Self().ID)
		for _, k := range keys {
			if _, err := st.Get(r.Self().ID, k); err != nil {
				t.Fatalf("after join, key unreachable from newcomer: %v", err)
			}
		}
	}
}

func TestValuesAreIsolatedCopies(t *testing.T) {
	st, _, nodes := buildStore(t, 3, Options{})
	key := ids.HashString("aliasing")
	data := []byte("original")
	if _, err := st.Put(nodes[0], key, data, Overwrite); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // caller mutates its buffer after the put
	gr, err := st.Get(nodes[1], key)
	if err != nil {
		t.Fatal(err)
	}
	if string(gr.Value.Data) != "original" {
		t.Fatal("store aliased the caller's buffer")
	}
	gr.Value.Data[0] = 'Y' // caller mutates the returned buffer
	gr2, err := st.Get(nodes[2], key)
	if err != nil {
		t.Fatal(err)
	}
	if string(gr2.Value.Data) != "original" {
		t.Fatal("store returned an aliased buffer")
	}
}

func TestStatsCount(t *testing.T) {
	st, _, nodes := buildStore(t, 4, Options{CacheEnabled: true})
	key := ids.HashString("counted")
	if _, err := st.Put(nodes[0], key, []byte("x"), Overwrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Get(nodes[1], key); err != nil {
			t.Fatal(err)
		}
	}
	lookups, _, puts := st.Stats().Snapshot()
	if lookups != 5 || puts != 1 {
		t.Fatalf("stats = %d lookups / %d puts, want 5/1", lookups, puts)
	}
}

func TestQuickPutGetAnyKey(t *testing.T) {
	st, _, nodes := buildStore(t, 5, Options{ReplicationFactor: 1, CacheEnabled: true})
	f := func(rawKey uint64, payload []byte, origin uint8) bool {
		key := ids.ID(rawKey & uint64(ids.Max()))
		from := nodes[int(origin)%len(nodes)]
		if _, err := st.Put(from, key, payload, Overwrite); err != nil {
			return false
		}
		gr, err := st.Get(nodes[(int(origin)+1)%len(nodes)], key)
		if err != nil {
			return false
		}
		return bytes.Equal(gr.Value.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCentralizedModeBasics(t *testing.T) {
	st, _, nodes := buildStore(t, 6, Options{Centralized: true})
	key := ids.HashString("central-object")
	pr, err := st.Put(nodes[3], key, []byte("v"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	// Every key lands on the coordinator (the first attached node).
	if pr.Owner != nodes[0] {
		t.Fatalf("owner = %s, want coordinator %s", pr.Owner, nodes[0])
	}
	for i := 0; i < 20; i++ {
		k := ids.HashString(fmt.Sprintf("central-%d", i))
		pr, err := st.Put(nodes[i%len(nodes)], k, []byte("x"), Overwrite)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Owner != nodes[0] {
			t.Fatalf("key %d owned by %s, want coordinator", i, pr.Owner)
		}
		// Lookups are at most one hop.
		gr, err := st.Get(nodes[(i+1)%len(nodes)], k)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Hops > 1 {
			t.Fatalf("centralized lookup took %d hops", gr.Hops)
		}
	}
}

func TestCentralizedCoordinatorIsSPOF(t *testing.T) {
	st, mesh, nodes := buildStore(t, 5, Options{Centralized: true})
	for i := 0; i < 10; i++ {
		k := ids.HashString(fmt.Sprintf("spof-%d", i))
		if _, err := st.Put(nodes[1], k, []byte("x"), Overwrite); err != nil {
			t.Fatal(err)
		}
	}
	// The coordinator crashes: everything is gone, unlike the DHT mode.
	if err := mesh.Fail(nodes[0]); err != nil {
		t.Fatal(err)
	}
	st.Detach(nodes[0])
	for i := 0; i < 10; i++ {
		k := ids.HashString(fmt.Sprintf("spof-%d", i))
		if _, err := st.Get(nodes[1], k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d survived coordinator crash: %v", i, err)
		}
	}
}

func TestCentralizedDelete(t *testing.T) {
	st, _, nodes := buildStore(t, 4, Options{Centralized: true})
	key := ids.HashString("central-del")
	if _, err := st.Put(nodes[2], key, []byte("x"), Overwrite); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(nodes[3], key); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(nodes[1], key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestCentralizedCacheStillWorks(t *testing.T) {
	st, _, nodes := buildStore(t, 5, Options{Centralized: true, CacheEnabled: true})
	key := ids.HashString("central-cached")
	if _, err := st.Put(nodes[0], key, []byte("x"), Overwrite); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(nodes[2], key); err != nil {
		t.Fatal(err)
	}
	gr, err := st.Get(nodes[2], key)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Hops != 0 || !gr.FromCache {
		t.Fatalf("repeat centralized lookup not cached: hops=%d cached=%v", gr.Hops, gr.FromCache)
	}
}

// broadcastWire counts plain sends separately from broadcasts so tests
// can see which path the replica push took.
type broadcastWire struct {
	sends      int
	broadcasts int
	fanout     int
}

func (w *broadcastWire) Send(_, _ ids.ID) { w.sends++ }
func (w *broadcastWire) Broadcast(_ ids.ID, to []ids.ID) {
	w.broadcasts++
	w.fanout += len(to)
}

func TestReplicateUsesBroadcastWire(t *testing.T) {
	wire := &broadcastWire{}
	mesh := overlay.NewMesh(wire)
	st := New(mesh, wire, Options{ReplicationFactor: 2})
	var nodes []ids.ID
	for i := 0; i < 6; i++ {
		r, err := mesh.Join(fmt.Sprintf("10.0.0.%d:7000", i+1))
		if err != nil {
			t.Fatal(err)
		}
		st.Attach(r.Self().ID)
		nodes = append(nodes, r.Self().ID)
	}
	wire.broadcasts, wire.fanout = 0, 0
	if _, err := st.Put(nodes[0], ids.HashString("bc"), []byte("v"), Overwrite); err != nil {
		t.Fatal(err)
	}
	if wire.broadcasts != 1 {
		t.Fatalf("replica push made %d broadcasts, want 1", wire.broadcasts)
	}
	if wire.fanout != 2 {
		t.Fatalf("broadcast fan-out %d, want 2 (rf=2)", wire.fanout)
	}
}

func TestGetRefAliasesStoreGetClones(t *testing.T) {
	st, _, nodes := buildStore(t, 5, Options{})
	key := ids.HashString("ref")
	pr, err := st.Put(nodes[0], key, []byte("payload"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := st.GetRef(pr.Owner, key)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := st.node(pr.Owner)
	if err != nil {
		t.Fatal(err)
	}
	if &ns.entry(key)[0].Data[0] != &ref.Value.Data[0] {
		t.Fatal("GetRef cloned the value — the zero-copy path copies")
	}
	got, err := st.Get(pr.Owner, key)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Value.Data[0] == &ref.Value.Data[0] {
		t.Fatal("public Get handed out a store reference")
	}
	if !bytes.Equal(got.Value.Data, []byte("payload")) {
		t.Fatalf("Get returned %q", got.Value.Data)
	}
}

func TestHoldersEnumeratesReplicaSet(t *testing.T) {
	st, _, nodes := buildStore(t, 6, Options{ReplicationFactor: 2})
	key := ids.HashString("holders")
	pr, err := st.Put(nodes[0], key, []byte("v"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	holders, err := st.Holders(nodes[1], key)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != 3 {
		t.Fatalf("Holders returned %d nodes, want 3 (owner + rf=2)", len(holders))
	}
	if holders[0] != pr.Owner {
		t.Fatalf("Holders[0] = %s, want owner %s", holders[0], pr.Owner)
	}
	seen := make(map[ids.ID]bool)
	for _, h := range holders {
		if seen[h] {
			t.Fatalf("duplicate holder %s", h)
		}
		seen[h] = true
		ns, err := st.node(h)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns.entry(key)) == 0 {
			t.Fatalf("holder %s has no authoritative copy", h)
		}
	}
}

func TestHoldersWithoutReplicationIsOwnerOnly(t *testing.T) {
	st, _, nodes := buildStore(t, 4, Options{})
	key := ids.HashString("solo")
	pr, err := st.Put(nodes[0], key, []byte("v"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	holders, err := st.Holders(nodes[2], key)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != 1 || holders[0] != pr.Owner {
		t.Fatalf("Holders = %v, want just owner %s", holders, pr.Owner)
	}
}
