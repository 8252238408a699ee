package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/kv"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/vclock"
)

// pieceTestbed is a home of identical netbooks "n00:9000", "n01:9000", …
// whose voluntary bins are sized per node, so piece placement (most
// voluntary space first, ties by address) is spelled out by the caller.
type pieceTestbed struct {
	v     *vclock.Virtual
	home  *Home
	cloud *cloudsim.Cloud
	nodes []*Node
}

func newPieceTestbed(t *testing.T, voluntaryGB []int64, cfg NodeConfig) *pieceTestbed {
	t.Helper()
	tb := &pieceTestbed{v: vclock.NewVirtual(epoch)}
	tb.v.Run(func() {
		tb.home = NewHome(tb.v, HomeOptions{Seed: 31, KV: kv.Options{ReplicationFactor: 2}})
		tb.cloud = cloudsim.New(tb.v, tb.home.Net())
		tb.home.AttachCloud(tb.cloud)
		for i, vol := range voluntaryGB {
			c := cfg
			name := fmt.Sprintf("n%02d", i)
			c.Addr, c.Machine = name+":9000", atomSpec(name)
			c.MandatoryBytes, c.VoluntaryBytes = 2*GB, vol*GB
			c.CloudGateway = i == 0
			n, err := tb.home.AddNode(c)
			if err != nil {
				t.Error(err)
				return
			}
			tb.nodes = append(tb.nodes, n)
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

// store blocking-stores payload from node 0 (which keeps the primary in
// its mandatory bin) and returns the published metadata.
func (tb *pieceTestbed) store(t *testing.T, name string, payload []byte) ObjectMeta {
	t.Helper()
	sess, err := tb.nodes[0].OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.StoreObjectData(name, "bin", payload, StoreOptions{Blocking: true}); err != nil {
		t.Fatal(err)
	}
	meta, _, err := tb.nodes[0].getMeta(name)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// requireEmptyBins is bin conservation: once an object is deleted, no
// live node may still hold a byte of it.
func (tb *pieceTestbed) requireEmptyBins(t *testing.T) {
	t.Helper()
	for _, n := range tb.home.Nodes() {
		for _, bin := range []objstore.Bin{objstore.Mandatory, objstore.Voluntary} {
			if u, err := n.store.Usage(bin); err != nil || u.Used != 0 {
				t.Errorf("%s %s bin: %d bytes in %v left after delete (err %v)", n.addr, bin, u.Used, n.store.List(), err)
			}
		}
	}
}

// requireLivePieces checks that the record lists want pieces, each on its
// own live node that holds the piece, none on the primary.
func (tb *pieceTestbed) requireLivePieces(t *testing.T, meta ObjectMeta, want int) {
	t.Helper()
	pieces := meta.pieces()
	if len(pieces) != want {
		t.Fatalf("pieces = %v, want %d", pieces, want)
	}
	seen := map[string]bool{meta.Location: true}
	for _, p := range pieces {
		holder, ok := tb.home.Node(p.addr)
		if !ok || !holder.store.Has(meta.pieceName(p.index)) {
			t.Fatalf("piece %d: holder %s is gone or lost it", p.index, p.addr)
		}
		if seen[p.addr] {
			t.Fatalf("piece %d shares %s with another copy", p.index, p.addr)
		}
		seen[p.addr] = true
	}
}

// combinations returns every size-k subset of {0, …, n−1}.
func combinations(n, k int) [][]int {
	var out [][]int
	var pick func(start int, cur []int)
	pick = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			pick(i+1, append(cur, i))
		}
	}
	pick(0, nil)
	return out
}

// TestErasureFetchSurvivesAnyHolderCrash is the round-trip property of
// the one redundancy mechanism, over whole copies (k = 1, the primary and
// its DataReplicas = n−1 replicas being the n copies) and coded shards
// (k > 1, n shards beside the primary): whichever k pieces survive the
// crash of the primary and of every other piece holder, a fetch returns
// the payload byte for byte; with Repair on the piece count is back to
// full afterwards; and deleting the object leaves every live bin empty.
func TestErasureFetchSurvivesAnyHolderCrash(t *testing.T) {
	payload := make([]byte, 256<<10+1)
	rand.New(rand.NewSource(19)).Read(payload)
	for _, code := range []struct{ k, n int }{{1, 2}, {1, 3}, {2, 3}, {3, 5}} {
		code := code
		t.Run(fmt.Sprintf("%d-of-%d", code.k, code.n), func(t *testing.T) {
			cfg := NodeConfig{Federation: FederationConfig{ErasureK: code.k, ErasureN: code.n}}
			pieces := code.n
			if code.k == 1 {
				cfg = NodeConfig{DataPlane: DataPlaneConfig{DataReplicas: code.n - 1}}
				pieces = code.n - 1
			}
			for _, survivors := range combinations(pieces, code.k) {
				survivors := survivors
				keep := strings.Trim(strings.ReplaceAll(fmt.Sprint(survivors), " ", "+"), "[]")
				for _, repair := range []bool{false, true} {
					cfg := cfg
					cfg.Faults = FaultConfig{Fallback: true, Repair: repair}
					t.Run(fmt.Sprintf("keep-%s/repair-%v", keep, repair), func(t *testing.T) {
						testSurvivingPieces(t, cfg, code.k, pieces, survivors, payload)
					})
				}
			}
		})
	}
}

// testSurvivingPieces stores payload with the given piece count, crashes
// the primary and then every piece holder outside survivors (indices into
// the stored piece list, k of them), and checks the fetch, the repair and
// the delete.
func testSurvivingPieces(t *testing.T, cfg NodeConfig, k, pieces int, survivors []int, payload []byte) {
	// The primary, the piece holders, one spare per crash for repair to
	// re-place onto, and a reader that holds nothing.
	crashes := 1 + pieces - k
	voluntary := make([]int64, 1+pieces+crashes+1)
	for i := range voluntary {
		voluntary[i] = 1
	}
	tb := newPieceTestbed(t, voluntary, cfg)
	tb.v.Run(func() {
		meta := tb.store(t, "coded.bin", payload)
		tb.requireLivePieces(t, meta, pieces)

		keep := map[int]bool{}
		for _, s := range survivors {
			keep[s] = true
		}
		schedule := netsim.FaultSchedule{Events: []netsim.FaultEvent{
			{At: 10 * time.Millisecond, Node: meta.Location, Kind: netsim.FaultCrash},
		}}
		for i, p := range meta.pieces() {
			if !keep[i] {
				at := time.Duration(len(schedule.Events)+1) * 10 * time.Millisecond
				schedule.Events = append(schedule.Events,
					netsim.FaultEvent{At: at, Node: p.addr, Kind: netsim.FaultCrash})
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		tb.v.Go(func() {
			defer wg.Done()
			if err := netsim.RunFaults(tb.v, schedule, func(e netsim.FaultEvent) error {
				return tb.home.RemoveNode(e.Node, false)
			}); err != nil {
				t.Error(err)
			}
		})
		tb.v.Block(wg.Wait)

		reader := tb.nodes[len(tb.nodes)-1]
		sess, err := reader.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.FetchObject("coded.bin")
		if err != nil {
			t.Fatalf("fetch with only pieces %v left: %v", survivors, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatal("fetched payload differs from the original")
		}
		if !cfg.Faults.Repair {
			// Nothing healed: the bytes can only have come through the
			// gather, from exactly the surviving pieces.
			source := meta.pieces()[survivors[0]].addr
			reconstructs := int64(0)
			if meta.coded() {
				source, reconstructs = fmt.Sprintf("erasure:%d-of-%d", meta.ErasureK, meta.ErasureN), 1
			}
			if res.Source != source {
				t.Fatalf("source = %q, want %q", res.Source, source)
			}
			if got := reader.OpStats().ShardReconstructs; got != reconstructs {
				t.Fatalf("ShardReconstructs = %d, want %d", got, reconstructs)
			}
		} else {
			healed, _, err := reader.getMeta("coded.bin")
			if err != nil {
				t.Fatal(err)
			}
			if primary, ok := tb.home.Node(healed.Location); !ok || !primary.store.Has("coded.bin") {
				t.Fatalf("repaired primary %q is gone or empty", healed.Location)
			}
			tb.requireLivePieces(t, healed, pieces)
		}
		if err := sess.DeleteObject("coded.bin"); err != nil {
			t.Fatal(err)
		}
		tb.requireEmptyBins(t)
	})
}

// TestGracefulDepartureKeepsPieces covers evacuation of every kind of
// copy. Node 1 has the most voluntary space, so it takes the first piece
// and stays the best voluntary fit afterwards; node 2 is next.
func TestGracefulDepartureKeepsPieces(t *testing.T) {
	payload := []byte("frame 0042, motion in the driveway")
	replicated := NodeConfig{DataPlane: DataPlaneConfig{DataReplicas: 1}}
	fetchFrom := func(t *testing.T, n *Node) FetchResult {
		t.Helper()
		sess, err := n.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.FetchObject("cam.jpg")
		if err != nil {
			t.Fatalf("fetch from %s after the departure: %v", n.addr, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("fetch from %s returned %q", n.addr, res.Data)
		}
		return res
	}
	deleteFrom := func(t *testing.T, tb *pieceTestbed, n *Node) {
		t.Helper()
		sess, err := n.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if err := sess.DeleteObject("cam.jpg"); err != nil {
			t.Fatal(err)
		}
		tb.requireEmptyBins(t)
	}

	t.Run("replica holder departs", func(t *testing.T) {
		tb := newPieceTestbed(t, []int64{1, 8, 4, 1}, replicated)
		tb.v.Run(func() {
			tb.store(t, "cam.jpg", payload)
			if err := tb.home.RemoveNode(tb.nodes[1].addr, true); err != nil {
				t.Fatal(err)
			}
			meta, _, err := tb.nodes[3].getMeta("cam.jpg")
			if err != nil {
				t.Fatal(err)
			}
			if meta.Location != tb.nodes[0].addr || meta.Bin != objstore.Mandatory.String() {
				t.Fatalf("primary reference rewritten to %s/%s by a replica's departure", meta.Location, meta.Bin)
			}
			tb.requireLivePieces(t, meta, 1)
			fetchFrom(t, tb.nodes[3])
			deleteFrom(t, tb, tb.nodes[3])
		})
	})

	t.Run("primary departs, replica on the best-fit peer", func(t *testing.T) {
		tb := newPieceTestbed(t, []int64{1, 8, 4, 1}, replicated)
		tb.v.Run(func() {
			tb.store(t, "cam.jpg", payload)
			if err := tb.home.RemoveNode(tb.nodes[0].addr, true); err != nil {
				t.Fatal(err)
			}
			if res := fetchFrom(t, tb.nodes[3]); res.Meta.Location != tb.nodes[2].addr {
				t.Fatalf("primary moved to %s, want the best peer without a copy, %s", res.Meta.Location, tb.nodes[2].addr)
			}
			if up := tb.cloud.Spend().BytesUp; up != 0 {
				t.Fatalf("%d bytes uploaded to the cloud although a peer had room", up)
			}
			meta, _, err := tb.nodes[3].getMeta("cam.jpg")
			if err != nil {
				t.Fatal(err)
			}
			tb.requireLivePieces(t, meta, 1)
			deleteFrom(t, tb, tb.nodes[3])
		})
	})

	t.Run("primary departs, replica holder is the only peer", func(t *testing.T) {
		tb := newPieceTestbed(t, []int64{1, 8}, replicated)
		tb.v.Run(func() {
			tb.store(t, "cam.jpg", payload)
			if err := tb.home.RemoveNode(tb.nodes[0].addr, true); err != nil {
				t.Fatal(err)
			}
			res := fetchFrom(t, tb.nodes[1])
			if res.Meta.Location != tb.nodes[1].addr || len(res.Meta.Replicas) != 0 {
				t.Fatalf("meta = %+v, want the replica promoted to sole primary", res.Meta)
			}
			if up := tb.cloud.Spend().BytesUp; up != 0 {
				t.Fatalf("%d bytes uploaded to the cloud although a whole copy was alive", up)
			}
			deleteFrom(t, tb, tb.nodes[1])
		})
	})

	t.Run("shard holder departs", func(t *testing.T) {
		tb := newPieceTestbed(t, []int64{1, 8, 4, 2, 1},
			NodeConfig{Federation: FederationConfig{ErasureK: 2, ErasureN: 3}})
		tb.v.Run(func() {
			before := tb.store(t, "cam.jpg", payload)
			if err := tb.home.RemoveNode(tb.nodes[1].addr, true); err != nil {
				t.Fatal(err)
			}
			meta, _, err := tb.nodes[4].getMeta("cam.jpg")
			if err != nil {
				t.Fatal(err)
			}
			if meta.Location != before.Location {
				t.Fatalf("primary moved to %s by a shard's departure", meta.Location)
			}
			tb.requireLivePieces(t, meta, 3)
			if meta.Shards[0].Addr != tb.nodes[4].addr {
				t.Fatalf("shard 0 went to %s, want the only node without a copy, %s", meta.Shards[0].Addr, tb.nodes[4].addr)
			}
			deleteFrom(t, tb, tb.nodes[4])
		})
	})

	t.Run("shard-looking name rejected", func(t *testing.T) {
		tb := newPieceTestbed(t, []int64{1, 1}, NodeConfig{})
		tb.v.Run(func() {
			sess, err := tb.nodes[0].OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if err := sess.CreateObject("cam#shard.0", "image", nil); err == nil {
				t.Fatal("CreateObject accepted a name reserved for coded shards")
			}
			if err := sess.CreateObject("cam#shard", "image", nil); err != nil {
				t.Fatalf("CreateObject rejected a name without the reserved suffix: %v", err)
			}
		})
	})
}

// TestObjectMetaPiecesKeepWireFormat decodes records as the commit before
// the piece view wrote them, passes them through the view, and requires
// the same bytes back.
func TestObjectMetaPiecesKeepWireFormat(t *testing.T) {
	for _, record := range []string{
		`{"name":"a.bin","type":"bin","size":7,"location":"n00:9000","bin":"mandatory"}`,
		`{"name":"a.bin","size":7,"location":"n00:9000","bin":"mandatory","replicas":["n02:9000","n01:9000"],"owner":"alice","acl":["bob"]}`,
		`{"name":"a.bin","size":7,"location":"n03:9000","bin":"voluntary","erasure_k":2,"erasure_n":3,"shards":[{"i":0,"addr":"n01:9000"},{"i":1,"addr":"n02:9000"},{"i":2,"addr":"n00:9000"}]}`,
	} {
		meta, err := UnmarshalObjectMeta([]byte(record))
		if err != nil {
			t.Fatal(err)
		}
		meta.setPieces(meta.pieces())
		got, err := meta.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != record {
			t.Errorf("record changed through the piece view:\n got %s\nwant %s", got, record)
		}
	}
}

// FuzzParseShardName checks the bin-level shard naming both ways: a name
// parses only if it is exactly what shardName prints for a non-negative
// index, and whatever shardName prints parses back.
func FuzzParseShardName(f *testing.F) {
	f.Add("cam.jpg", 0)
	f.Add("cam#shard.0", 3)
	f.Fuzz(func(t *testing.T, name string, idx int) {
		if parent, i, ok := parseShardName(name); ok {
			if i < 0 {
				t.Fatalf("parseShardName(%q) accepted index %d", name, i)
			}
			if back := shardName(parent, i); back != name {
				t.Fatalf("parseShardName(%q) = (%q, %d), which names %q", name, parent, i, back)
			}
		}
		if idx < 0 {
			return
		}
		if parent, i, ok := parseShardName(shardName(name, idx)); !ok || parent != name || i != idx {
			t.Fatalf("parseShardName(shardName(%q, %d)) = (%q, %d, %v)", name, idx, parent, i, ok)
		}
	})
}
