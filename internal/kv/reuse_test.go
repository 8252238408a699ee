package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"cloud4home/internal/ids"
)

// recordAt returns a copy of node's record for key and whether it has one.
func recordAt(t *testing.T, st *Store, node, key ids.ID) (record, bool) {
	t.Helper()
	ns, err := st.node(node)
	if err != nil {
		t.Fatal(err)
	}
	if rec := ns.recs[key]; rec != nil {
		return *rec, true
	}
	return record{}, false
}

// TestDeletedRecordReusedClean: the records Delete drops are taken over
// by later keys, and a taken-over record carries none of the old key's
// entry, cache or holders — at the owner, at a replica and at a path
// cache.
func TestDeletedRecordReusedClean(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{ReplicationFactor: 1, CacheEnabled: true})
	old := ids.HashString("reuse/old")
	if _, err := st.Put(nodes[0], old, []byte("old bytes"), Overwrite); err != nil {
		t.Fatal(err)
	}
	oldHolders, err := st.Holders(nodes[0], old)
	if err != nil {
		t.Fatal(err)
	}
	// Every node caches or holds the old key, and its owner registers the
	// caches as holders.
	for _, n := range nodes {
		if _, err := st.Get(n, old); err != nil {
			t.Fatal(err)
		}
	}
	if rec, _ := recordAt(t, st, oldHolders[0], old); len(rec.holders) == 0 {
		t.Fatal("the old key's owner registered no cache holders")
	}
	if err := st.Delete(nodes[0], old); err != nil {
		t.Fatal(err)
	}

	// The new key has the old key's owner and replica, so each of them
	// reuses the record the old key left.
	var key ids.ID
	for i := 0; ; i++ {
		key = ids.HashString(fmt.Sprintf("reuse/new-%d", i))
		hs, err := st.Holders(nodes[0], key)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(hs, oldHolders) {
			break
		}
	}
	freed := make(map[*record]bool)
	for _, n := range nodes {
		ns, _ := st.node(n)
		if len(ns.free) == 0 {
			t.Fatalf("%s kept no dropped record", n)
		}
		for _, rec := range ns.free {
			freed[rec] = true
		}
	}
	reused := func(node ids.ID) record {
		t.Helper()
		ns, _ := st.node(node)
		rec := ns.recs[key]
		if rec == nil {
			t.Fatalf("%s holds no record for the new key", node)
		}
		if !freed[rec] {
			t.Fatalf("%s allocated a record although it kept a dropped one", node)
		}
		return *rec
	}

	data := []byte("new bytes")
	if _, err := st.Put(nodes[0], key, data, Overwrite); err != nil {
		t.Fatal(err)
	}
	owner, replica := oldHolders[0], oldHolders[1]
	for _, n := range []ids.ID{owner, replica} {
		rec := reused(n)
		if len(rec.entry) != 1 || !bytes.Equal(rec.entry[0].Data, data) || rec.entry[0].Version != 1 {
			t.Fatalf("%s: new key's entry %+v, want one version of %q", n, rec.entry, data)
		}
		if rec.cache != nil || rec.holders != nil {
			t.Fatalf("%s: new key's record kept cache %v and holders %v", n, rec.cache, rec.holders)
		}
	}

	var reader ids.ID
	for _, n := range nodes {
		if n != owner && n != replica {
			reader = n
			break
		}
	}
	if _, err := st.Get(reader, key); err != nil {
		t.Fatal(err)
	}
	rec := reused(reader)
	if rec.entry != nil || rec.holders != nil {
		t.Fatalf("path cache at %s: new key's record kept entry %v and holders %v", reader, rec.entry, rec.holders)
	}
	if len(rec.cache) != 1 || !bytes.Equal(rec.cache[0].Data, data) {
		t.Fatalf("path cache at %s holds %+v, want one version of %q", reader, rec.cache, data)
	}
	if ownerRec := reused(owner); !slices.Contains(ownerRec.holders, reader) || len(ownerRec.holders) > len(nodes) {
		t.Fatalf("owner's holders %v after one read from %s", ownerRec.holders, reader)
	}
	for _, n := range nodes {
		if _, ok := recordAt(t, st, n, old); ok {
			t.Fatalf("%s still holds a record for the deleted key", n)
		}
	}
}

// storeAllocBed is a warmed store for the allocation tests: keys are put
// and deleted once so every node's record free list is stocked.
func storeAllocBed(t *testing.T, opts Options) (*Store, []ids.ID, []ids.ID) {
	t.Helper()
	st, _, nodes := buildStore(t, 8, opts)
	keys := make([]ids.ID, 256)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf("alloc/%d", i))
	}
	for _, k := range keys[:32] {
		if _, err := st.Put(nodes[0], k, []byte("warm"), Overwrite); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if _, err := st.Get(n, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range keys[:32] {
		if err := st.Delete(nodes[0], k); err != nil {
			t.Fatal(err)
		}
	}
	return st, nodes, keys
}

// TestGetRefAllocations: the zero-copy read allocates nothing, neither
// on a local hit nor on a walk of several hops to the owner.
func TestGetRefAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	st, nodes, keys := storeAllocBed(t, Options{})
	key := keys[100]
	pr, err := st.Put(nodes[0], key, []byte("v"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := st.GetRef(pr.Owner, key); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GetRef local hit: %v allocations, want 0", n)
	}

	// A key some node reaches in two hops or more.
	var from ids.ID
	for _, k := range keys[101:] {
		if _, err := st.Put(nodes[0], k, []byte("v"), Overwrite); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if gr, err := st.GetRef(n, k); err == nil && gr.Hops >= 2 {
				key, from = k, n
			}
		}
		if from != 0 {
			break
		}
	}
	if from == 0 {
		t.Fatal("no lookup took two hops")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := st.GetRef(from, key); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GetRef multi-hop walk: %v allocations, want 0", n)
	}
}

// mallocsOf counts the heap allocations f makes. It measures on one P,
// as testing.AllocsPerRun does: with more, the runtime's own background
// work on another P lands in the window now and then.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDeleteAllocations: removing a key from its owner, its replicas and
// every path cache allocates nothing; the dropped records are kept for
// reuse.
func TestDeleteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	st, nodes, keys := storeAllocBed(t, Options{ReplicationFactor: 2, CacheEnabled: true})
	var total uint64
	const runs = 50
	for i := 0; i < runs; i++ {
		key := keys[32+i%32]
		if _, err := st.Put(nodes[i%len(nodes)], key, []byte("v"), Overwrite); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(nodes[(i+3)%len(nodes)], key); err != nil {
			t.Fatal(err)
		}
		total += mallocsOf(func() {
			if err := st.Delete(nodes[(i+5)%len(nodes)], key); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := float64(total) / runs; n != 0 {
		t.Errorf("Delete: %v allocations, want 0", n)
	}
}

// TestPutDeleteAllocations: on a warmed store, a Put of a fresh key and
// its Delete allocate only Put's copy-in — the value's bytes and the
// one-entry chain. The records come off the free lists. With replicas
// the push's target list is one more: it escapes through the
// Broadcaster call.
func TestPutDeleteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		rf   int
		want float64
	}{{0, 2}, {2, 3}} {
		st, nodes, keys := storeAllocBed(t, Options{ReplicationFactor: c.rf, CacheEnabled: true})
		data := []byte(`{"name":"obj/1","size":4096,"location":"n01:9000"}`)
		i := 0
		if n := testing.AllocsPerRun(100, func() {
			key := keys[32+i%len(keys[32:])]
			from := nodes[i%len(nodes)]
			i++
			if _, err := st.Put(from, key, data, Overwrite); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(from, key); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("rf %d: Put+Delete of a fresh key: %v allocations, want %v", c.rf, n, c.want)
		}
	}
}
