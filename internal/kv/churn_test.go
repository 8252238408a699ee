package kv

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cloud4home/internal/ids"
)

// TestRepairRefreshesStaleOverwriteReplica is the regression for the
// version-blind repair merge: Overwrite-policy chains always have length
// 1, so a replica stuck on a stale Version was never refreshed by the old
// `len(existing) < len(chain)` comparison.
func TestRepairRefreshesStaleOverwriteReplica(t *testing.T) {
	st, mesh, nodes := buildStore(t, 6, Options{ReplicationFactor: 2})
	key := ids.HashString("stale-replica-object")
	if _, err := st.Put(nodes[0], key, []byte("v1"), Overwrite); err != nil {
		t.Fatal(err)
	}
	pr, err := st.Put(nodes[0], key, []byte("v2"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 {
		t.Fatalf("second put version = %d, want 2", pr.Version)
	}
	r, err := mesh.Router(pr.Owner)
	if err != nil {
		t.Fatal(err)
	}
	var replica ids.ID
	for _, m := range r.ReplicaSet(key, st.opts.ReplicationFactor+1) {
		if m.ID != pr.Owner {
			replica = m.ID
			break
		}
	}
	if replica == 0 {
		t.Fatal("no replica member found")
	}
	// Hand-craft the staleness: same chain length (1), older Version — as
	// if this replica missed the second Overwrite.
	rs, err := st.node(replica)
	if err != nil {
		t.Fatal(err)
	}
	rs.recs[key].entry = []Value{{Data: []byte("v1"), Version: 1}}

	st.repair(pr.Owner)

	got := rs.entry(key)
	if len(got) != 1 || got[0].Version != 2 || !bytes.Equal(got[0].Data, []byte("v2")) {
		t.Fatalf("replica after repair = %+v, want single value v2/Version 2", got)
	}
}

// TestDepartRefreshesStaleOverwriteReplica covers the same version-blind
// merge on the graceful-departure push, observed through the public API:
// the departing owner's fresher value must win over a stale same-length
// replica, so reads after the departure return the latest write.
func TestDepartRefreshesStaleOverwriteReplica(t *testing.T) {
	st, mesh, nodes := buildStore(t, 6, Options{ReplicationFactor: 1})
	key := ids.HashString("depart-stale-object")
	if _, err := st.Put(nodes[0], key, []byte("old"), Overwrite); err != nil {
		t.Fatal(err)
	}
	pr, err := st.Put(nodes[0], key, []byte("new"), Overwrite)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mesh.Router(pr.Owner)
	if err != nil {
		t.Fatal(err)
	}
	// Stale every non-owner copy back to Version 1.
	for _, m := range r.ReplicaSet(key, st.opts.ReplicationFactor+2) {
		if m.ID == pr.Owner {
			continue
		}
		ms, err := st.node(m.ID)
		if err != nil {
			continue
		}
		if rec := ms.recs[key]; rec != nil && len(rec.entry) > 0 {
			rec.entry = []Value{{Data: []byte("old"), Version: 1}}
		}
	}
	if err := st.Depart(pr.Owner); err != nil {
		t.Fatal(err)
	}
	var probe ids.ID
	for _, n := range nodes {
		if n != pr.Owner {
			probe = n
			break
		}
	}
	gr, err := st.Get(probe, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gr.Value.Data, []byte("new")) || gr.Value.Version != 2 {
		t.Fatalf("after departure Get = %q/v%d, want \"new\"/v2", gr.Value.Data, gr.Value.Version)
	}
}

// TestDeleteMissingKeyLeavesHolders is the regression for Delete mutating
// owner-side state before the existence check: a failed delete must not
// wipe the cache-holder bookkeeping, or later refreshCaches sweeps skip
// live caches.
func TestDeleteMissingKeyLeavesHolders(t *testing.T) {
	st, _, nodes := buildStore(t, 8, Options{CacheEnabled: true})
	// Find a key whose warmed caches register holders at the owner.
	for i := 0; i < 50; i++ {
		key := ids.HashString(fmt.Sprintf("phantom-%d", i))
		if _, err := st.Put(nodes[0], key, []byte("x"), Overwrite); err != nil {
			t.Fatal(err)
		}
		for _, from := range nodes {
			if _, err := st.Get(from, key); err != nil {
				t.Fatal(err)
			}
		}
		owner, _, _, err := st.locateOwner(nodes[0], key)
		if err != nil {
			t.Fatal(err)
		}
		os, err := st.node(owner)
		if err != nil {
			t.Fatal(err)
		}
		before := len(os.recs[key].holders)
		if before == 0 {
			continue // topology gave this key no path caches; try another
		}
		// Simulate the entry vanishing while caches stay tracked (churn can
		// leave exactly this state), then issue the failing delete.
		os.recs[key].entry = nil
		if err := st.Delete(nodes[1], key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("delete of missing key: %v, want ErrNotFound", err)
		}
		after := len(os.recs[key].holders)
		if after != before {
			t.Fatalf("failed delete wiped holder bookkeeping: %d -> %d", before, after)
		}
		return
	}
	t.Skip("no key produced path-cache holders in this topology")
}

// TestChurnUnderLoad drives a deterministic join/fail/depart loop
// interleaved with Put/Get/Delete: no Overwrite value may be lost or go
// stale, deleted keys stay deleted, and the replication factor is
// restored after every repair. Runs in short mode so the CI race job
// exercises the repair/hand-over locking.
func TestChurnUnderLoad(t *testing.T) {
	const rf = 2
	// Path caching stays off here: cache refresh is keyed to holder
	// registrations at the owner, which churn relocates, so cached reads
	// under ownership movement have weaker freshness than replica reads.
	// This test pins down the authoritative-copy guarantees.
	st, mesh, nodes := buildStore(t, 8, Options{ReplicationFactor: rf})
	alive := append([]ids.ID{}, nodes...)
	names := []string{"churn-a", "churn-b", "churn-c", "churn-d", "churn-e"}
	version := make(map[string]int)
	nextAddr := len(nodes) + 1

	removeAlive := func(id ids.ID) {
		for i, a := range alive {
			if a == id {
				alive = append(alive[:i], alive[i+1:]...)
				return
			}
		}
	}
	authoritativeCopies := func(key ids.ID) int {
		count := 0
		for _, id := range alive {
			ns, err := st.node(id)
			if err != nil {
				continue
			}
			if len(ns.entry(key)) > 0 {
				count++
			}
		}
		return count
	}
	checkAll := func(round int) {
		t.Helper()
		for _, name := range names {
			key := ids.HashString(name)
			want := fmt.Sprintf("%s#v%d", name, version[name])
			from := alive[round%len(alive)]
			gr, err := st.Get(from, key)
			if err != nil {
				t.Fatalf("round %d: %s lost: %v", round, name, err)
			}
			if string(gr.Value.Data) != want {
				t.Fatalf("round %d: %s = %q, want %q (stale replica served)", round, name, gr.Value.Data, want)
			}
			if got, min := authoritativeCopies(key), rf+1; len(alive) >= min && got < min {
				t.Fatalf("round %d: %s has %d authoritative copies, want >= %d", round, name, got, min)
			}
		}
	}

	// Seed every key before the churn starts.
	for i, name := range names {
		version[name] = 1
		data := []byte(fmt.Sprintf("%s#v1", name))
		if _, err := st.Put(alive[i%len(alive)], ids.HashString(name), data, Overwrite); err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
	}

	for round := 0; round < 12; round++ {
		// Writes: bump a rotating subset of keys.
		for k := 0; k < 3; k++ {
			name := names[(round+k)%len(names)]
			version[name]++
			data := []byte(fmt.Sprintf("%s#v%d", name, version[name]))
			from := alive[(round+k)%len(alive)]
			if _, err := st.Put(from, ids.HashString(name), data, Overwrite); err != nil {
				t.Fatalf("round %d: put %s: %v", round, name, err)
			}
		}
		// A short-lived key is created and deleted every round.
		eph := ids.HashString("churn-ephemeral")
		if _, err := st.Put(alive[0], eph, []byte("gone soon"), Overwrite); err != nil {
			t.Fatalf("round %d: put ephemeral: %v", round, err)
		}
		if err := st.Delete(alive[len(alive)-1], eph); err != nil {
			t.Fatalf("round %d: delete ephemeral: %v", round, err)
		}
		if _, err := st.Get(alive[round%len(alive)], eph); !errors.Is(err, ErrNotFound) {
			t.Fatalf("round %d: deleted key still resolves: %v", round, err)
		}

		// Churn: crash, graceful leave, or join, round-robin.
		switch round % 3 {
		case 0:
			victim := alive[1]
			if err := mesh.Fail(victim); err != nil {
				t.Fatalf("round %d: fail: %v", round, err)
			}
			st.Detach(victim)
			removeAlive(victim)
		case 1:
			leaver := alive[len(alive)/2]
			if err := st.Depart(leaver); err != nil {
				t.Fatalf("round %d: depart: %v", round, err)
			}
			removeAlive(leaver)
		default:
			r, err := mesh.Join(fmt.Sprintf("192.168.1.%d:7000", nextAddr))
			nextAddr++
			if err != nil {
				t.Fatalf("round %d: join: %v", round, err)
			}
			st.Attach(r.Self().ID)
			alive = append(alive, r.Self().ID)
		}
		checkAll(round)
	}
}

// TestDeleteAtOwnerDropsItsCachedCopy is the regression for Delete keeping
// the owner's record while it still held a path-cached chain: a node that
// cached a key and then took the key over through churn kept serving the
// deleted value from that cache after the Delete.
func TestDeleteAtOwnerDropsItsCachedCopy(t *testing.T) {
	for i := 0; i < 50; i++ {
		st, _, nodes := buildStore(t, 8, Options{CacheEnabled: true})
		key := ids.HashString(fmt.Sprintf("inherited-%d", i))
		pr, err := st.Put(nodes[0], key, []byte("doomed"), Overwrite)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if _, err := st.Get(n, key); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Depart(pr.Owner); err != nil {
			t.Fatal(err)
		}
		var from ids.ID
		for _, n := range nodes {
			if n != pr.Owner {
				from = n
				break
			}
		}
		heir, _, _, err := st.locateOwner(from, key)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := st.node(heir)
		if err != nil {
			t.Fatal(err)
		}
		rec := hs.recs[key]
		cachedToo := rec != nil && rec.entry != nil && rec.cache != nil
		if !cachedToo {
			continue // the heir had not cached the key; try another
		}
		if err := st.Delete(from, key); err != nil {
			t.Fatal(err)
		}
		if gr, err := st.Get(heir, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get at the owner after Delete = %q (err %v), want ErrNotFound", gr.Value.Data, err)
		}
		return
	}
	t.Fatal("no key's heir had a path-cached copy of it")
}
