package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cloud4home/internal/ids"
)

// countingWire records how many messages crossed the wire.
type countingWire struct {
	mu sync.Mutex
	n  int
}

func (w *countingWire) Send(_, _ ids.ID) {
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
}

func (w *countingWire) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

func buildMesh(t *testing.T, n int) (*Mesh, []ids.ID) {
	t.Helper()
	m := NewMesh(FreeWire{})
	nodeIDs := make([]ids.ID, 0, n)
	for i := 0; i < n; i++ {
		r, err := m.Join(fmt.Sprintf("10.0.0.%d:9000", i+1))
		if err != nil {
			t.Fatalf("Join node %d: %v", i, err)
		}
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	return m, nodeIDs
}

func TestJoinBuildsFullMembership(t *testing.T) {
	m, nodeIDs := buildMesh(t, 6)
	for _, id := range nodeIDs {
		r, err := m.Router(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 6 {
			t.Fatalf("node %s sees %d members, want 6", id, r.Len())
		}
	}
}

func TestJoinDuplicateAddrRejected(t *testing.T) {
	m := NewMesh(FreeWire{})
	if _, err := m.Join("a:1"); err != nil {
		t.Fatal(err)
	}
	_, err := m.Join("a:1")
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate join: got %v, want ErrDuplicateID", err)
	}
}

func TestAllNodesAgreeOnOwner(t *testing.T) {
	m, nodeIDs := buildMesh(t, 8)
	for i := 0; i < 200; i++ {
		key := ids.HashString(fmt.Sprintf("object-%d", i))
		var owner ids.ID
		for j, id := range nodeIDs {
			r, _ := m.Router(id)
			got := r.Owner(key).ID
			if j == 0 {
				owner = got
			} else if got != owner {
				t.Fatalf("key %s: node %s says owner %s, node %s says %s",
					key, nodeIDs[0], owner, id, got)
			}
		}
	}
}

// TestRouteReachesOwnerFromEveryOrigin: from every node the route ends
// at the key's owner, and every hop it reports is one wire message: the
// sends chain from the origin to the owner.
func TestRouteReachesOwnerFromEveryOrigin(t *testing.T) {
	w := &recordWire{}
	m := NewMesh(w)
	var nodeIDs []ids.ID
	for i := 0; i < 8; i++ {
		r, err := m.Join(fmt.Sprintf("10.0.0.%d:9000", i+1))
		if err != nil {
			t.Fatal(err)
		}
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	for i := 0; i < 50; i++ {
		key := ids.HashString(fmt.Sprintf("k-%d", i))
		r0, _ := m.Router(nodeIDs[0])
		want := r0.Owner(key).ID
		for _, from := range nodeIDs {
			w.log = w.log[:0]
			res, err := m.Route(from, key)
			if err != nil {
				t.Fatalf("Route(%s, %s): %v", from, key, err)
			}
			if res.Owner.ID != want {
				t.Fatalf("Route from %s found owner %s, want %s", from, res.Owner.ID, want)
			}
			if res.Hops != len(w.log) {
				t.Fatalf("Hops=%d but the route sent %d messages", res.Hops, len(w.log))
			}
			at := from
			for _, msg := range w.log {
				if msg[0] != at {
					t.Fatalf("route from %s: message %v does not leave the current node %s", from, msg, at)
				}
				at = msg[1]
			}
			if at != want {
				t.Fatalf("route from %s: last message reached %s, not the owner %s", from, at, want)
			}
			if from == want && res.Hops != 0 {
				t.Fatalf("owner routing to itself took %d hops", res.Hops)
			}
		}
	}
}

func TestRouteChargesWire(t *testing.T) {
	w := &countingWire{}
	m := NewMesh(w)
	var nodeIDs []ids.ID
	for i := 0; i < 6; i++ {
		r, err := m.Join(fmt.Sprintf("n%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	before := w.count()
	key := ids.HashString("some-object")
	r0, _ := m.Router(nodeIDs[0])
	res, err := m.Route(nodeIDs[0], key)
	if err != nil {
		t.Fatal(err)
	}
	sent := w.count() - before
	if sent != res.Hops {
		t.Fatalf("wire saw %d messages, route reported %d hops", sent, res.Hops)
	}
	_ = r0
}

func TestNeighborsAreRingAdjacent(t *testing.T) {
	m, nodeIDs := buildMesh(t, 6)
	for _, id := range nodeIDs {
		r, _ := m.Router(id)
		left, right, ok := r.Neighbors()
		if !ok {
			t.Fatalf("node %s has no neighbours in a 6-node mesh", id)
		}
		// Successor of left must be self; predecessor of right must be self.
		lr, _ := m.Router(left.ID)
		_, succ, _ := lr.Neighbors()
		if succ.ID != id {
			t.Fatalf("left neighbour %s's right is %s, want %s", left.ID, succ.ID, id)
		}
		rr, _ := m.Router(right.ID)
		pred, _, _ := rr.Neighbors()
		if pred.ID != id {
			t.Fatalf("right neighbour %s's left is %s, want %s", right.ID, pred.ID, id)
		}
	}
}

func TestLeaveShrinksMembershipAndReassignsKeys(t *testing.T) {
	m, nodeIDs := buildMesh(t, 6)
	key := ids.HashString("tracked-object")
	r0, _ := m.Router(nodeIDs[0])
	owner := r0.Owner(key).ID

	// The owner departs; ownership must move to a live node and every
	// survivor must agree.
	if err := m.Leave(owner); err != nil {
		t.Fatal(err)
	}
	var newOwner ids.ID
	first := true
	for _, id := range nodeIDs {
		if id == owner {
			continue
		}
		r, err := m.Router(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 5 {
			t.Fatalf("node %s sees %d members after leave, want 5", id, r.Len())
		}
		got := r.Owner(key).ID
		if got == owner {
			t.Fatalf("node %s still thinks departed node owns the key", id)
		}
		if first {
			newOwner, first = got, false
		} else if got != newOwner {
			t.Fatalf("owner disagreement after leave: %s vs %s", got, newOwner)
		}
	}
}

func TestLeaveUnknownNode(t *testing.T) {
	m, _ := buildMesh(t, 2)
	if err := m.Leave(ids.HashString("nobody")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("got %v, want ErrUnknownNode", err)
	}
	if err := m.Fail(ids.HashString("nobody")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("got %v, want ErrUnknownNode", err)
	}
}

func TestDepartureHandlersFire(t *testing.T) {
	m, nodeIDs := buildMesh(t, 4)
	var fired []string
	m.OnDeparture(func(departed Member) { fired = append(fired, "a:"+departed.ID.String()) })
	m.OnDeparture(func(departed Member) { fired = append(fired, "b:"+departed.ID.String()) })
	if err := m.Leave(nodeIDs[0]); err != nil {
		t.Fatal(err)
	}
	// One run per handler per event, in registration order, however many
	// nodes survive.
	want := []string{"a:" + nodeIDs[0].String(), "b:" + nodeIDs[0].String()}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("departure handlers fired %v, want %v", fired, want)
	}
}

func TestJoinHandlersFire(t *testing.T) {
	m, nodeIDs := buildMesh(t, 3)
	old, _ := m.Router(nodeIDs[0])
	var seen []ids.ID
	known := false
	m.OnJoin(func(joined Member) {
		seen = append(seen, joined.ID)
		known = old.Knows(joined.ID)
	})
	r, err := m.Join("latecomer:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != r.Self().ID {
		t.Fatalf("join handler saw %v, want one event for %s", seen, r.Self().ID)
	}
	if !known {
		t.Fatal("join handler ran before membership was updated")
	}
}

func TestFailRunsHandlersWithoutFarewell(t *testing.T) {
	w := &countingWire{}
	m := NewMesh(w)
	var nodeIDs []ids.ID
	for i := 0; i < 3; i++ {
		r, err := m.Join(fmt.Sprintf("f%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	fired := 0
	m.OnDeparture(func(Member) { fired++ })
	before := w.count()
	if err := m.Fail(nodeIDs[0]); err != nil {
		t.Fatal(err)
	}
	if w.count() != before {
		t.Fatal("crash (Fail) must not send farewell messages")
	}
	if fired != 1 {
		t.Fatalf("departure handler fired %d times, want 1", fired)
	}
	if m.Len() != 2 {
		t.Fatalf("mesh has %d nodes after Fail, want 2", m.Len())
	}
}

func TestReplicaSetOrderedAndDistinct(t *testing.T) {
	m, nodeIDs := buildMesh(t, 8)
	r, _ := m.Router(nodeIDs[0])
	key := ids.HashString("replicated-object")
	set := r.ReplicaSet(key, 3)
	if len(set) != 3 {
		t.Fatalf("ReplicaSet returned %d members, want 3", len(set))
	}
	if set[0].ID != r.Owner(key).ID {
		t.Fatal("first replica must be the owner")
	}
	seen := map[ids.ID]bool{}
	for i, mb := range set {
		if seen[mb.ID] {
			t.Fatal("duplicate member in replica set")
		}
		seen[mb.ID] = true
		if i > 0 && ids.Closer(key, set[i].ID, set[i-1].ID) {
			t.Fatal("replica set not ordered by distance to key")
		}
	}
	// Asking for more replicas than nodes returns all nodes.
	if got := len(r.ReplicaSet(key, 100)); got != 8 {
		t.Fatalf("oversize ReplicaSet returned %d, want 8", got)
	}
}

func TestChurnConvergence(t *testing.T) {
	m := NewMesh(FreeWire{})
	rng := rand.New(rand.NewSource(3))
	live := map[ids.ID]bool{}
	addr := 0
	join := func() {
		addr++
		r, err := m.Join(fmt.Sprintf("churn-%d:1", addr))
		if err != nil {
			t.Fatal(err)
		}
		live[r.Self().ID] = true
	}
	for i := 0; i < 4; i++ {
		join()
	}
	for i := 0; i < 120; i++ {
		if len(live) > 2 && rng.Intn(2) == 0 {
			// Remove a random live node, alternating graceful/crash.
			var victim ids.ID
			k := rng.Intn(len(live))
			for id := range live {
				if k == 0 {
					victim = id
					break
				}
				k--
			}
			var err error
			if i%2 == 0 {
				err = m.Leave(victim)
			} else {
				err = m.Fail(victim)
			}
			if err != nil {
				t.Fatal(err)
			}
			delete(live, victim)
		} else {
			join()
		}
		// Invariant: every live node sees exactly the live membership.
		for id := range live {
			r, err := m.Router(id)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != len(live) {
				t.Fatalf("after %d ops node %s sees %d members, want %d",
					i, id, r.Len(), len(live))
			}
		}
	}
	// Routing still works from everywhere.
	for id := range live {
		if _, err := m.Route(id, ids.HashString("post-churn-key")); err != nil {
			t.Fatalf("Route after churn: %v", err)
		}
	}
}

func TestOwnerIsClosestProperty(t *testing.T) {
	m, nodeIDs := buildMesh(t, 10)
	r, _ := m.Router(nodeIDs[0])
	f := func(raw uint64) bool {
		key := ids.ID(raw & uint64(ids.Max()))
		owner := r.Owner(key)
		for _, mb := range r.Members() {
			if ids.Closer(key, mb.ID, owner.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRouteFromUnknownNode(t *testing.T) {
	m, _ := buildMesh(t, 3)
	if _, err := m.Route(ids.HashString("ghost"), 42); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("got %v, want ErrUnknownNode", err)
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	m := NewMesh(FreeWire{})
	r, err := m.Join("solo:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := ids.HashString(fmt.Sprintf("k%d", i))
		if !r.IsOwner(key) {
			t.Fatalf("single node must own key %s", key)
		}
		res, err := m.Route(r.Self().ID, key)
		if err != nil || res.Hops != 0 {
			t.Fatalf("route on single-node mesh: hops=%d err=%v", res.Hops, err)
		}
	}
	if _, _, ok := r.Neighbors(); ok {
		t.Fatal("single node must not report neighbours")
	}
}

func TestRoutingScalesWithMembership(t *testing.T) {
	// Prefix routing should keep hop counts modest as the overlay grows —
	// the paper's future work asks "how to scale to larger numbers of
	// @home ... participants" (§VII iii).
	for _, n := range []int{8, 32, 128} {
		m, nodeIDs := buildMesh(t, n)
		totalHops, ops := 0, 0
		for i := 0; i < 100; i++ {
			key := ids.HashString(fmt.Sprintf("scale-%d-%d", n, i))
			res, err := m.Route(nodeIDs[i%len(nodeIDs)], key)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			totalHops += res.Hops
			ops++
		}
		mean := float64(totalHops) / float64(ops)
		// With 16-ary prefix routing and full membership, the mean hop
		// count stays small (≈1–3) even at 128 nodes.
		if mean > 4 {
			t.Errorf("n=%d: mean hops %.2f too high", n, mean)
		}
		t.Logf("n=%d: mean hops %.2f", n, mean)
	}
}

// TestRouteAllocations pins the route's host cost at zero allocations:
// a lookup keeps its hop counts, not the nodes it visited.
func TestRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, nodeIDs := buildMesh(t, 6)
	keys := make([]ids.ID, 64)
	for i := range keys {
		keys[i] = ids.HashString(fmt.Sprintf("alloc-%d", i))
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.Route(nodeIDs[i%len(nodeIDs)], keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Mesh.Route: %v allocations, want 0", n)
	}
}
