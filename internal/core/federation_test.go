package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/erasure"
	"cloud4home/internal/kv"
	"cloud4home/internal/policy"
	"cloud4home/internal/vclock"
)

// federationTestbed is the erasure-sized home: a primary atom (cloud
// gateway), a desktop, and three netbooks, so a 2-of-3 code has four
// candidate shard holders beyond the primary.
type federationTestbed struct {
	v     *vclock.Virtual
	home  *Home
	cloud *cloudsim.Cloud
	atom  *Node
	peers []*Node // desktop then netbooks, in address order
}

func newFederationTestbed(t *testing.T, cfg Config, backends []cloudsim.BackendProfile) *federationTestbed {
	t.Helper()
	tb := &federationTestbed{v: vclock.NewVirtual(epoch)}
	tb.v.Run(func() {
		tb.home = NewHome(tb.v, HomeOptions{Seed: 31, KV: kv.Options{ReplicationFactor: 2}, Config: cfg})
		tb.cloud = cloudsim.New(tb.v, tb.home.Net())
		tb.home.AttachCloud(tb.cloud)
		for _, prof := range backends {
			tb.home.AttachBackend(cloudsim.NewRemote(tb.v, tb.home.Net(), prof))
		}
		add := func(cfg NodeConfig) *Node {
			n, err := tb.home.AddNode(cfg)
			if err != nil {
				t.Error(err)
			}
			return n
		}
		tb.atom = add(NodeConfig{
			Addr: "atom:9000", Machine: atomSpec("atom"),
			MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
			CloudGateway: true,
		})
		tb.peers = append(tb.peers, add(NodeConfig{
			Addr: "desktop:9000", Machine: desktopSpec(),
			MandatoryBytes: 8 * GB, VoluntaryBytes: 8 * GB,
		}))
		for i := 1; i <= 3; i++ {
			name := fmt.Sprintf("netbook-%d", i)
			tb.peers = append(tb.peers, add(NodeConfig{
				Addr: name + ":9000", Machine: atomSpec(name),
				MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
			}))
		}
		if t.Failed() {
			return
		}
		for _, n := range tb.home.Nodes() {
			_ = n.Monitor().PublishOnce()
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return tb
}

func (tb *federationTestbed) run(fn func()) { tb.v.Run(fn) }

// storeErasure stores payload at the atom and returns its metadata.
func storeErasure(t *testing.T, tb *federationTestbed, name string, payload []byte) ObjectMeta {
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
	return meta
}

// TestErasureStorePlacesShardsNotReplicas stores under both forms of
// the redundancy code: 2-of-3 places three coded shards, counted in
// ShardsPlaced; 1-of-2 places two whole copies under the object's own
// name, no shard, and writes the Replicas form of the record that
// TestObjectMetaPiecesKeepWireFormat pins, with no erasure_k/erasure_n.
// Every piece lands on its own peer, never on the primary.
func TestErasureStorePlacesShardsNotReplicas(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(17)).Read(payload)
	for _, c := range []struct {
		k, n   int
		placed int64 // the primary's ShardsPlaced
		record string
	}{
		{2, 3, 3, `{"name":"a.bin","type":"bin","size":1048576,"location":"atom:9000","bin":"mandatory","erasure_k":2,"erasure_n":3,"shards":[{"i":0,"addr":"desktop:9000"},{"i":1,"addr":"netbook-1:9000"},{"i":2,"addr":"netbook-2:9000"}]}`},
		{1, 2, 0, `{"name":"a.bin","type":"bin","size":1048576,"location":"atom:9000","bin":"mandatory","replicas":["desktop:9000","netbook-1:9000"]}`},
	} {
		t.Run(fmt.Sprintf("%d-of-%d", c.k, c.n), func(t *testing.T) {
			tb := newFederationTestbed(t, Config{Fallback: true, ErasureK: c.k, ErasureN: c.n}, nil)
			tb.run(func() {
				meta := storeErasure(t, tb, "a.bin", payload)
				if got, err := meta.Marshal(); err != nil || string(got) != c.record {
					t.Fatalf("record = %s (%v), want %s", got, err, c.record)
				}
				seen := map[string]bool{meta.Location: true}
				for _, p := range meta.pieces() {
					if seen[p.addr] {
						t.Fatalf("piece %d shares %s with the primary or another piece", p.index, p.addr)
					}
					seen[p.addr] = true
					holder, ok := tb.home.Node(p.addr)
					if !ok || !holder.store.Has(meta.pieceName(p.index)) {
						t.Fatalf("holder %s missing piece %d", p.addr, p.index)
					}
				}
				if got := tb.atom.OpStats().ShardsPlaced; got != c.placed {
					t.Fatalf("primary ShardsPlaced = %d, want %d", got, c.placed)
				}
			})
		})
	}
}

func TestErasureRepairPromotesNewPrimaryAndRestoresShards(t *testing.T) {
	tb := newFederationTestbed(t, Config{Fallback: true, Repair: true, ErasureK: 2, ErasureN: 3}, nil)
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(23)).Read(payload)
	tb.run(func() {
		before := storeErasure(t, tb, "heal.bin", payload)
		if err := tb.home.RemoveNode(tb.atom.addr, false); err != nil {
			t.Fatal(err)
		}
		meta, _, err := tb.peers[0].getMeta("heal.bin")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Location == tb.atom.addr {
			t.Fatalf("location still the dead primary %q", meta.Location)
		}
		newPrimary, ok := tb.home.Node(meta.Location)
		if !ok {
			t.Fatalf("promoted primary %q not in the home", meta.Location)
		}
		_, got, err := newPrimary.store.Get("heal.bin")
		if err != nil {
			t.Fatalf("promoted primary has no payload: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("repaired payload differs from the original")
		}
		if len(meta.Shards) != 3 {
			t.Fatalf("shards after repair = %v, want back to 3", meta.Shards)
		}
		for _, ref := range meta.Shards {
			if ref.Addr == meta.Location {
				t.Fatalf("shard %d rides on the new primary", ref.Index)
			}
			holder, ok := tb.home.Node(ref.Addr)
			if !ok || !holder.store.Has(shardName("heal.bin", ref.Index)) {
				t.Fatalf("holder %s missing shard %d after repair", ref.Addr, ref.Index)
			}
		}
		var restored, reconstructs int64
		for _, n := range tb.home.Nodes() {
			st := n.OpStats()
			restored += st.ShardsRestored
			reconstructs += st.ShardReconstructs
		}
		if restored == 0 {
			t.Fatal("no ShardsRestored counted by the repair")
		}
		if reconstructs == 0 {
			t.Fatal("no ShardReconstructs counted by the repair")
		}
		_ = before
	})
}

// TestFallbackCloudProbeIsCharged is the headline bugfix's regression
// test: the ladder's cloud rung must pay a WAN round trip for its
// existence probe (a HEAD-style Stat) instead of consulting the
// simulator's free oracle — even when the probe misses.
func TestFallbackCloudProbeIsCharged(t *testing.T) {
	tb := newFederationTestbed(t, Config{Fallback: true}, nil)
	tb.run(func() {
		owner, err := tb.peers[1].OpenSession() // netbook-1 holds the only copy
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.StoreObjectData("phantom.bin", "bin", []byte("gone"), StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		owner.Close()
		if err := tb.home.RemoveNode(tb.peers[1].addr, false); err != nil {
			t.Fatal(err)
		}

		reqBefore := tb.cloud.Spend().Requests
		reader, err := tb.peers[0].OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Close()
		start := tb.v.Now()
		_, err = reader.FetchObject("phantom.bin")
		elapsed := tb.v.Now().Sub(start)
		if !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("fetch with no surviving copy: %v, want ErrObjectNotFound", err)
		}
		if got := tb.peers[0].OpStats().CloudProbes; got != 1 {
			t.Fatalf("CloudProbes = %d, want 1", got)
		}
		if got := tb.cloud.Spend().Requests - reqBefore; got != 1 {
			t.Fatalf("cloud requests for the probe = %d, want 1 (charged Stat)", got)
		}
		// The probe is one jittered half-RTT on the WAN down path; the
		// billed request above is the free-oracle discriminator, the
		// elapsed check just confirms wire time passed at all.
		if elapsed <= 0 {
			t.Fatalf("failed fetch consumed no virtual time (probe not charged)")
		}
	})
}

// TestFederationZeroValueIdentity replays one store+fetch sequence on a
// plain testbed and on one with extra backends attached but no
// Config.Backend: every operation must take exactly the same virtual
// time.
func TestFederationZeroValueIdentity(t *testing.T) {
	arm := func(backends []cloudsim.BackendProfile) []time.Duration {
		tb := newFederationTestbed(t, Config{Fallback: true}, backends)
		var samples []time.Duration
		tb.run(func() {
			owner, err := tb.atom.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			defer owner.Close()
			reader, err := tb.peers[2].OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			for i, opts := range []StoreOptions{
				{Blocking: true},
				{Blocking: true, Policy: policy.SizeThreshold{RemoteBytes: 1}},
			} {
				name := fmt.Sprintf("ident-%d.bin", i)
				if err := owner.CreateObject(name, "bin", nil); err != nil {
					t.Fatal(err)
				}
				t0 := tb.v.Now()
				if _, err := owner.StoreObject(name, nil, 4<<20, opts); err != nil {
					t.Fatal(err)
				}
				samples = append(samples, tb.v.Now().Sub(t0))
				t0 = tb.v.Now()
				if _, err := reader.FetchObject(name); err != nil {
					t.Fatal(err)
				}
				samples = append(samples, tb.v.Now().Sub(t0))
			}
		})
		return samples
	}
	plain := arm(nil)
	attached := arm([]cloudsim.BackendProfile{cloudsim.ArchiveProfile(), cloudsim.MetroProfile()})
	if len(plain) != len(attached) {
		t.Fatalf("sample counts differ: %d vs %d", len(plain), len(attached))
	}
	for i := range plain {
		if plain[i] != attached[i] {
			t.Fatalf("sample %d: %v plain vs %v with backends attached", i, plain[i], attached[i])
		}
	}
}

func TestPinnedPolicyRoutesStoreToNamedBackend(t *testing.T) {
	tb := newFederationTestbed(t, Config{Backend: policy.PinnedBackend{Backend: "metro"}},
		[]cloudsim.BackendProfile{cloudsim.ArchiveProfile(), cloudsim.MetroProfile()})
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.StoreObjectData("pinned.bin", "bin", []byte("edge data"),
			StoreOptions{Blocking: true, Policy: policy.SizeThreshold{RemoteBytes: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != policy.TargetCloud {
			t.Fatalf("target = %v, want cloud", res.Target)
		}
		if !strings.Contains(res.Location, "vmetro") {
			t.Fatalf("location = %q, want the metro bucket", res.Location)
		}
		meta, _, err := tb.atom.getMeta("pinned.bin")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Backend != "metro" {
			t.Fatalf("meta.Backend = %q, want metro", meta.Backend)
		}
		var metro cloudsim.Backend
		for _, b := range tb.home.Backends() {
			if b.Name() == "metro" {
				metro = b
			}
		}
		if metro.Spend().BytesUp == 0 {
			t.Fatal("no bytes charged against the metro backend")
		}
		if tb.cloud.Spend().BytesUp != 0 {
			t.Fatal("default cloud was charged for a pinned-metro store")
		}
		fr, err := sess.FetchObject("pinned.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data, []byte("edge data")) {
			t.Fatal("pinned fetch returned wrong bytes")
		}
	})
}

// TestAddNodeValidatesErasurePair: a redundancy code outside (0, 0),
// (1, n ≥ 1) and 1 < k < n, or with n over erasure.MaxShards, is input
// from outside the program, so AddNode rejects it with a message naming
// the pair; no code, whole copies and a valid RS code are accepted.
func TestAddNodeValidatesErasurePair(t *testing.T) {
	refused := func(k, n int) string {
		return fmt.Sprintf("core: redundancy (ErasureK, ErasureN) = (%d, %d): need (0, 0), (1, n >= 1) or 1 < k < n, with n <= %d", k, n, erasure.MaxShards)
	}
	for _, c := range []struct {
		k, n int
		want string // errText's "-" = accepted
	}{
		{0, 0, "-"},
		{1, 1, "-"},
		{1, 3, "-"},
		{2, 3, "-"},
		{0, 3, refused(0, 3)},
		{3, 2, refused(3, 2)},
		{2, 2, refused(2, 2)},
		{1, 0, refused(1, 0)},
		{-1, 2, refused(-1, 2)},
		{1, erasure.MaxShards + 1, refused(1, erasure.MaxShards+1)},
		{2, erasure.MaxShards + 1, refused(2, erasure.MaxShards+1)},
	} {
		v := vclock.NewVirtual(epoch)
		v.Run(func() {
			home := NewHome(v, HomeOptions{Config: Config{ErasureK: c.k, ErasureN: c.n}})
			_, err := home.AddNode(NodeConfig{Addr: "n00:9000", Machine: atomSpec("n00"), MandatoryBytes: GB})
			if got := errText(err); got != c.want {
				t.Errorf("k=%d n=%d: AddNode error %q, want %q", c.k, c.n, got, c.want)
			}
		})
	}
}
