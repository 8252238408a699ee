package overlay

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cloud4home/internal/ids"
)

// recordWire logs every wire message so the mesh can be compared
// send-for-send with what the oracle predicts.
type recordWire struct {
	log [][2]ids.ID
}

func (w *recordWire) Send(from, to ids.ID) {
	w.log = append(w.log, [2]ids.ID{from, to})
}

// oracle is the brute-force reference router: the membership as a slice
// sorted by ID, every routing answer a full scan minimising ids.Closer.
// It is what a router with a private membership copy and an eagerly
// maintained prefix table computes, written without any tree geometry,
// so the arena's O(log N) probes are checked against the definition
// rather than against themselves.
type oracle struct {
	members []Member // ascending ID
	wire    recordWire
}

func (o *oracle) index(id ids.ID) int {
	return sort.Search(len(o.members), func(i int) bool { return o.members[i].ID >= id })
}

// join interns m and logs the newcomer's messages to its ring neighbours.
func (o *oracle) join(m Member) {
	i := o.index(m.ID)
	o.members = append(o.members, Member{})
	copy(o.members[i+1:], o.members[i:])
	o.members[i] = m
	o.greet(m.ID)
}

// remove forgets id, after its farewell messages when it leaves cleanly.
func (o *oracle) remove(id ids.ID, farewell bool) {
	if farewell {
		o.greet(id)
	}
	i := o.index(id)
	o.members = append(o.members[:i], o.members[i+1:]...)
}

func (o *oracle) greet(id ids.ID) {
	if left, right, ok := o.neighbors(id); ok {
		o.wire.Send(id, left.ID)
		if right.ID != left.ID {
			o.wire.Send(id, right.ID)
		}
	}
}

func (o *oracle) neighbors(self ids.ID) (left, right Member, ok bool) {
	n := len(o.members)
	if n < 2 {
		return Member{}, Member{}, false
	}
	i := o.index(self)
	return o.members[(i-1+n)%n], o.members[(i+1)%n], true
}

// closest returns the member minimising ids.Closer distance to target
// among those keep admits.
func (o *oracle) closest(target ids.ID, keep func(Member) bool) (Member, bool) {
	var best Member
	found := false
	for _, m := range o.members {
		if keep(m) && (!found || ids.Closer(target, m.ID, best.ID)) {
			best, found = m, true
		}
	}
	return best, found
}

func (o *oracle) owner(key ids.ID) Member {
	m, _ := o.closest(key, func(Member) bool { return true })
	return m
}

func (o *oracle) replicaSet(key ids.ID, n int) []Member {
	out := append([]Member(nil), o.members...)
	sort.Slice(out, func(i, j int) bool { return ids.Closer(key, out[i].ID, out[j].ID) })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// nextHop is one prefix-routing step from self: the prefix-table slot
// for the key's next digit — the member closest to self among those
// sharing self's first l digits and carrying digit d there — or the
// owner when that slot is empty.
func (o *oracle) nextHop(self, key ids.ID) (Member, bool) {
	owner := o.owner(key)
	if owner.ID == self {
		return owner, false
	}
	if l := ids.CommonPrefixLen(key, self); l < ids.Digits {
		d := key.Digit(l)
		if m, ok := o.closest(self, func(m Member) bool {
			return m.ID != self && ids.CommonPrefixLen(self, m.ID) == l && m.ID.Digit(l) == d
		}); ok {
			return m, true
		}
	}
	return owner, true
}

func (o *oracle) route(from, key ids.ID) (owner Member, path []ids.ID) {
	path = []ids.ID{from}
	for cur := from; ; {
		next, forward := o.nextHop(cur, key)
		if !forward {
			return next, path
		}
		path = append(path, next.ID)
		cur = next.ID
	}
}

func sameWireLog(t *testing.T, what string, got, want [][2]ids.ID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: mesh sent %d msgs, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s msg %d: mesh %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestCompactMeshMatchesFlat: every routing answer of the mesh — owners,
// next hops, replica sets, neighbours, full routes, and the exact
// wire-message log of joins — equals the brute-force oracle's over the
// same membership.
func TestCompactMeshMatchesFlat(t *testing.T) {
	w := &recordWire{}
	mesh, ref := NewMesh(w), &oracle{}
	for i := 0; i < 48; i++ {
		addr := fmt.Sprintf("city-%d:9000", i)
		r, err := mesh.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		ref.join(r.Self())
	}
	sameWireLog(t, "join", w.log, ref.wire.log)

	nodes := mesh.Nodes()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		key := ids.ID(rng.Uint64()) & ids.Max()
		from := nodes[rng.Intn(len(nodes))]
		r, _ := mesh.Router(from)

		if got, want := r.Owner(key), ref.owner(key); got != want {
			t.Fatalf("Owner(%s) from %s: mesh %v, oracle %v", key, from, got, want)
		}
		gn, gf := r.NextHop(key)
		wn, wf := ref.nextHop(from, key)
		if gn != wn || gf != wf {
			t.Fatalf("NextHop(%s) from %s: mesh (%v,%v), oracle (%v,%v)", key, from, gn, gf, wn, wf)
		}
		rf := rng.Intn(len(nodes)+2) + 1
		gs, ws := r.ReplicaSet(key, rf), ref.replicaSet(key, rf)
		if len(gs) != len(ws) {
			t.Fatalf("ReplicaSet(%s, %d): mesh %d members, oracle %d", key, rf, len(gs), len(ws))
		}
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("ReplicaSet(%s, %d)[%d]: mesh %v, oracle %v", key, rf, i, gs[i], ws[i])
			}
		}
		gl, gr, gok := r.Neighbors()
		wl, wr, wok := ref.neighbors(from)
		if gl != wl || gr != wr || gok != wok {
			t.Fatalf("Neighbors of %s differ: mesh (%v,%v,%v) oracle (%v,%v,%v)", from, gl, gr, gok, wl, wr, wok)
		}

		res, err := mesh.Route(from, key)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		wantOwner, wantPath := ref.route(from, key)
		if res.Owner != wantOwner || res.Hops != len(wantPath)-1 || len(res.Path) != len(wantPath) {
			t.Fatalf("Route(%s) from %s: mesh %+v, oracle owner %v path %v", key, from, res, wantOwner, wantPath)
		}
		for i, m := range res.Path {
			if m.ID != wantPath[i] {
				t.Fatalf("Route(%s) from %s hop %d: mesh %s, oracle %s", key, from, i, m.ID, wantPath[i])
			}
		}
	}
}

// TestCompactMeshChurnMatchesFlat drives a random join/leave/fail
// schedule through the mesh and the oracle and checks membership,
// owners, next hops and wire logs stay in lockstep throughout.
func TestCompactMeshChurnMatchesFlat(t *testing.T) {
	w := &recordWire{}
	mesh, ref := NewMesh(w), &oracle{}
	rng := rand.New(rand.NewSource(23))
	var live []string
	nextAddr := 0
	join := func() {
		addr := fmt.Sprintf("churn-%d:9000", nextAddr)
		nextAddr++
		r, err := mesh.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		ref.join(r.Self())
		live = append(live, addr)
	}
	for i := 0; i < 12; i++ {
		join()
	}
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) <= 4:
			join()
		default:
			i := rng.Intn(len(live))
			id := ids.HashString(live[i])
			live = append(live[:i], live[i+1:]...)
			var err error
			if op == 1 {
				err = mesh.Leave(id)
			} else {
				err = mesh.Fail(id)
			}
			if err != nil {
				t.Fatal(err)
			}
			ref.remove(id, op == 1)
		}
		if mesh.Len() != len(live) || len(ref.members) != len(live) {
			t.Fatalf("step %d: mesh %d, oracle %d, live %d", step, mesh.Len(), len(ref.members), len(live))
		}
		key := ids.ID(rng.Uint64()) & ids.Max()
		from := ids.HashString(live[rng.Intn(len(live))])
		r, _ := mesh.Router(from)
		if r.Len() != len(live) {
			t.Fatalf("step %d: router view %d, live %d", step, r.Len(), len(live))
		}
		if got, want := r.Owner(key), ref.owner(key); got != want {
			t.Fatalf("step %d: Owner(%s) mesh %v, oracle %v", step, key, got, want)
		}
		gn, gf := r.NextHop(key)
		wn, wf := ref.nextHop(from, key)
		if gn != wn || gf != wf {
			t.Fatalf("step %d: NextHop(%s) from %s: mesh (%v,%v), oracle (%v,%v)", step, key, from, gn, gf, wn, wf)
		}
	}
	sameWireLog(t, "churn", w.log, ref.wire.log)
}

// TestCompactGlobalHandlersFire: OnJoin/OnDeparture handlers run once
// per event across a sequence of joins, a leave and a crash.
func TestCompactGlobalHandlersFire(t *testing.T) {
	m := NewMesh(FreeWire{})
	var joins, departs []ids.ID
	m.OnJoin(func(j Member) { joins = append(joins, j.ID) })
	m.OnDeparture(func(d Member) { departs = append(departs, d.ID) })
	for i := 0; i < 5; i++ {
		if _, err := m.Join(fmt.Sprintf("gh-%d:1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(joins) != 5 {
		t.Fatalf("%d join events, want 5", len(joins))
	}
	if err := m.Leave(joins[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(joins[3]); err != nil {
		t.Fatal(err)
	}
	if len(departs) != 2 || departs[0] != joins[1] || departs[1] != joins[3] {
		t.Fatalf("departure events %v, want [%s %s]", departs, joins[1], joins[3])
	}
}

// TestArenaBytesGrowsAndShrinks: the arena footprint gauge tracks
// membership.
func TestArenaBytesGrowsAndShrinks(t *testing.T) {
	m := NewMesh(FreeWire{})
	if m.ArenaBytes() != 0 {
		t.Fatalf("empty arena reports %d bytes", m.ArenaBytes())
	}
	var nodes []ids.ID
	for i := 0; i < 10; i++ {
		r, err := m.Join(fmt.Sprintf("ab-%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, r.Self().ID)
	}
	full := m.ArenaBytes()
	if full <= 0 {
		t.Fatalf("arena bytes = %d after 10 joins", full)
	}
	for _, id := range nodes[:5] {
		if err := m.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	if half := m.ArenaBytes(); half >= full || half <= 0 {
		t.Fatalf("arena bytes %d after leaves, was %d", half, full)
	}
}

// TestSuperPeerLookupMatchesFlatOwner is the hierarchical-lookup property
// test: across random memberships and random fault schedules, with 1, 2,
// and 4 regional domains, routing from every live node resolves every
// key to exactly the owner flat routing picks, and spine traffic is
// attributed to SuperHops.
func TestSuperPeerLookupMatchesFlatOwner(t *testing.T) {
	for _, regions := range []int{1, 2, 4} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(100*int64(regions) + seed))
			// ref routes the same membership without the tier.
			sp, ref := NewMesh(FreeWire{}), NewMesh(FreeWire{})
			sp.EnableSuperPeers(regions)
			n := 6 + rng.Intn(10)
			var live []string
			for i := 0; i < n; i++ {
				addr := fmt.Sprintf("sp-%d-%d-%d:9000", regions, seed, i)
				if _, err := sp.Join(addr); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Join(addr); err != nil {
					t.Fatal(err)
				}
				live = append(live, addr)
			}
			// Random fault schedule: a few crashes and departures.
			for k := 0; k < 1+rng.Intn(3) && len(live) > 3; k++ {
				i := rng.Intn(len(live))
				id := ids.HashString(live[i])
				live = append(live[:i], live[i+1:]...)
				var err1, err2 error
				if rng.Intn(2) == 0 {
					err1, err2 = sp.Fail(id), ref.Fail(id)
				} else {
					err1, err2 = sp.Leave(id), ref.Leave(id)
				}
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			}
			for trial := 0; trial < 60; trial++ {
				key := ids.ID(rng.Uint64()) & ids.Max()
				from := ids.HashString(live[rng.Intn(len(live))])
				fromR, _ := ref.Router(from)
				wantOwner := fromR.Owner(key)
				res, err := sp.Route(from, key)
				if err != nil {
					t.Fatalf("regions=%d seed=%d: route: %v", regions, seed, err)
				}
				if res.Owner != wantOwner {
					t.Fatalf("regions=%d seed=%d: key %s owner %v, flat owner %v",
						regions, seed, key, res.Owner, wantOwner)
				}
				if res.Hops > 3 {
					t.Fatalf("regions=%d: %d hops through the super-peer tier, want <= 3", regions, res.Hops)
				}
				if res.SuperHops > res.Hops {
					t.Fatalf("SuperHops %d > Hops %d", res.SuperHops, res.Hops)
				}
				if regions == 1 && res.SuperHops > 1 {
					t.Fatalf("single region: %d super hops, want <= 1", res.SuperHops)
				}
			}
		}
	}
}

// TestSuperPeerPromotionAfterFailure: when a region's super-peer dies,
// the next lowest-addressed member of the domain takes over.
func TestSuperPeerPromotionAfterFailure(t *testing.T) {
	m := NewMesh(FreeWire{})
	m.EnableSuperPeers(2)
	for i := 0; i < 16; i++ {
		if _, err := m.Join(fmt.Sprintf("promo-%d:9000", i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := ids.ID(1) << 20 // a key in region 0
	sp0, ok := m.SuperPeer(probe)
	if !ok {
		t.Fatal("region 0 has no super-peer despite members")
	}
	if err := m.Fail(sp0.ID); err != nil {
		t.Fatal(err)
	}
	sp1, ok := m.SuperPeer(probe)
	if ok && sp1.ID == sp0.ID {
		t.Fatal("failed super-peer still listed")
	}
	if ok && sp1.ID <= sp0.ID {
		t.Fatalf("promoted super-peer %s not the next lowest address above %s", sp1.ID, sp0.ID)
	}
}
