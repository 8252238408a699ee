package kv

import (
	"bytes"
	"fmt"
	"testing"

	"cloud4home/internal/ids"
)

// copyHolders returns, for a key already put, its owner, its first
// replica and a node that holds only a path-cached copy — the three kinds
// of holder that share one chain. The cache is warmed by a Get from the
// first node that is neither owner nor replica.
func copyHolders(t *testing.T, st *Store, nodes []ids.ID, key ids.ID) (owner, replica, cached ids.ID) {
	t.Helper()
	holders, err := st.Holders(nodes[0], key)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) < 2 {
		t.Fatalf("Holders = %v, want an owner and a replica", holders)
	}
	isHolder := make(map[ids.ID]bool)
	for _, h := range holders {
		isHolder[h] = true
	}
	for _, n := range nodes {
		if isHolder[n] {
			continue
		}
		if _, err := st.Get(n, key); err != nil {
			t.Fatal(err)
		}
		gr, err := st.GetRef(n, key)
		if err != nil {
			t.Fatal(err)
		}
		if !gr.FromCache || gr.Hops != 0 {
			t.Fatalf("repeat read at %s: hops=%d cached=%v, want a local cache hit", n, gr.Hops, gr.FromCache)
		}
		return holders[0], holders[1], n
	}
	t.Fatal("every node holds an authoritative copy")
	return 0, 0, 0
}

// TestPutAllocationsIndependentOfCaches: refreshing k path caches hands
// each of them the owner's chain, so one Put allocates the same whatever
// k is.
func TestPutAllocationsIndependentOfCaches(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	st, _, nodes := buildStore(t, 16, Options{ReplicationFactor: 2, CacheEnabled: true})
	data := []byte(`{"location":"netbook-3:9000","size":1048576}`)
	var want float64
	for i, k := range []int{1, 5, 13} {
		key := ids.HashString(fmt.Sprintf("refreshed-%d", k))
		pr, err := st.Put(nodes[0], key, data, Overwrite)
		if err != nil {
			t.Fatal(err)
		}
		os, err := st.node(pr.Owner)
		if err != nil {
			t.Fatal(err)
		}
		var path []ids.ID
		for _, n := range nodes {
			if n != pr.Owner && len(path) < k {
				path = append(path, n)
			}
		}
		st.populatePathCaches(key, os.entry(key), path, pr.Owner)
		got := len(os.recs[key].holders)
		if got != k {
			t.Fatalf("owner registered %d cache holders, want %d", got, k)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := st.Put(pr.Owner, key, data, Overwrite); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			want = allocs
		} else if allocs != want {
			t.Fatalf("Put refreshing %d caches makes %.1f allocations, with 1 cache %.1f", k, allocs, want)
		}
	}
}

// TestChainAppendNeverWritesSharedSlice: a Chain-policy append is
// copy-on-write, so a chain held at the owner, a replica and a path cache
// keeps exactly the versions it was taken with.
func TestChainAppendNeverWritesSharedSlice(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{ReplicationFactor: 1, CacheEnabled: true})
	key := ids.HashString("chained")
	if _, err := st.Put(nodes[0], key, []byte("v1"), Chain); err != nil {
		t.Fatal(err)
	}
	owner, replica, cached := copyHolders(t, st, nodes, key)

	var held [][][]Value // per version: the chain taken at each holder
	take := func() {
		var chains [][]Value
		for _, id := range []ids.ID{owner, replica, cached} {
			chain, _, _, _, err := st.getChain(id, key)
			if err != nil {
				t.Fatal(err)
			}
			chains = append(chains, chain)
		}
		held = append(held, chains)
	}
	take()
	for v := 2; v <= 4; v++ {
		if _, err := st.Put(nodes[0], key, []byte(fmt.Sprintf("v%d", v)), Chain); err != nil {
			t.Fatal(err)
		}
		take()
		for taken, chains := range held {
			for j, chain := range chains {
				// The cache sees later puts only if the owner served its
				// read, so only the authoritative copies pin a length.
				if j < 2 && len(chain) != taken+1 {
					t.Fatalf("after v%d: chain taken at v%d has %d versions", v, taken+1, len(chain))
				}
				for i, val := range chain {
					if want := fmt.Sprintf("v%d", i+1); string(val.Data) != want || val.Version != i+1 {
						t.Fatalf("after v%d: chain taken at v%d reads %q/v%d at %d, want %q", v, taken+1, val.Data, val.Version, i, want)
					}
				}
			}
		}
	}
	if c := held[0][2]; len(c) != 1 {
		t.Fatalf("cache chain taken at v1 has %d versions after v4", len(c))
	}
}

// TestGetResultsDoNotAliasStore: Get and GetAll copy what they hand out,
// so scribbling over their results leaves every holder's bytes intact.
func TestGetResultsDoNotAliasStore(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{ReplicationFactor: 1, CacheEnabled: true})
	key := ids.HashString("scribbled")
	for _, v := range []string{"first", "second"} {
		if _, err := st.Put(nodes[0], key, []byte(v), Chain); err != nil {
			t.Fatal(err)
		}
	}
	owner, replica, cached := copyHolders(t, st, nodes, key)
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xff
		}
	}
	for _, n := range nodes {
		gr, err := st.Get(n, key)
		if err != nil {
			t.Fatal(err)
		}
		scribble(gr.Value.Data)
		all, _, err := st.GetAll(n, key)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range all {
			scribble(v.Data)
		}
	}
	for _, id := range []ids.ID{owner, replica, cached} {
		gr, err := st.GetRef(id, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gr.Value.Data, []byte("second")) {
			t.Fatalf("GetRef at %s = %q after scribbling, want %q", id, gr.Value.Data, "second")
		}
		chain, _, _, _, err := st.getChain(id, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chain[0].Data, []byte("first")) {
			t.Fatalf("history at %s = %q after scribbling, want %q", id, chain[0].Data, "first")
		}
	}
}

// TestDeleteLeavesNoRecord: a record is deleted once it holds nothing, so
// after Delete — also of a key that moved when its owner departed — no
// attached node keeps one for the key.
func TestDeleteLeavesNoRecord(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{ReplicationFactor: 2, CacheEnabled: true})
	key := ids.HashString("doomed")
	warm := func() ids.ID {
		t.Helper()
		pr, err := st.Put(nodes[0], key, []byte("x"), Overwrite)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if _, err := st.Get(n, key); err != nil {
				t.Fatal(err)
			}
		}
		return pr.Owner
	}
	noRecord := func(when string) {
		t.Helper()
		for _, n := range nodes {
			ns, err := st.node(n)
			if err != nil {
				continue // departed
			}
			rec := ns.recs[key]
			if rec != nil {
				t.Fatalf("%s: %s still holds a record for the key: %+v", when, n, *rec)
			}
		}
	}

	warm()
	if err := st.Delete(nodes[0], key); err != nil {
		t.Fatal(err)
	}
	noRecord("after Delete")

	owner := warm()
	if err := st.Depart(owner); err != nil {
		t.Fatal(err)
	}
	var from ids.ID
	for _, n := range nodes {
		if n != owner {
			from = n
			break
		}
	}
	if err := st.Delete(from, key); err != nil {
		t.Fatal(err)
	}
	noRecord("after Depart and Delete")
}
