package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/kv"
	"cloud4home/internal/objstore"
	"cloud4home/internal/vclock"
)

const mb = 1 << 20

// updateGolden rewrites testdata/golden from this tree's transcripts.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.txt from this tree's transcripts")

// ladderBed is one fetch-ladder scenario: a home of netbooks "n00:9000",
// "n01:9000", … with the given voluntary bins. n00
// is the cloud gateway and stores every object, keeping the primary in
// its mandatory bin; redundant pieces go to the peers with the most
// voluntary space.
type ladderBed struct {
	t     *testing.T
	name  string
	v     *vclock.Virtual
	home  *Home
	cloud *cloudsim.Cloud // nil when the scenario has no cloud
	nodes []*Node         // every node of the scenario, crashed ones too
	out   *strings.Builder
}

// ladderScenario describes one home and what runs on it.
type ladderScenario struct {
	name        string
	voluntaryGB []int64
	cfg         Config
	noCloud     bool
	run         func(b *ladderBed)
}

func runLadderScenario(t *testing.T, sc ladderScenario, out *strings.Builder) {
	t.Helper()
	b := &ladderBed{t: t, name: sc.name, v: vclock.NewVirtual(epoch), out: out}
	b.v.Run(func() {
		b.home = NewHome(b.v, HomeOptions{Seed: 31, KV: kv.Options{ReplicationFactor: 2}, Config: sc.cfg})
		if !sc.noCloud {
			b.cloud = cloudsim.New(b.v, b.home.Net())
			b.home.AttachCloud(b.cloud)
		}
		for i, vol := range sc.voluntaryGB {
			name := fmt.Sprintf("n%02d", i)
			n, err := b.home.AddNode(NodeConfig{
				Addr: name + ":9000", Machine: atomSpec(name),
				MandatoryBytes: 2 * GB, VoluntaryBytes: vol * GB,
				CloudGateway: i == 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			b.nodes = append(b.nodes, n)
		}
		for _, n := range b.home.Nodes() {
			_ = n.Monitor().PublishOnce()
		}
		sc.run(b)
	})
}

// payload is a deterministic materialised payload of size bytes.
func ladderPayload(name string, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(int64(len(name))*7919 + int64(size))).Read(p)
	return p
}

// store blocking-stores name from n00: materialised bytes, or a sparse
// object of size bytes when sparse is set. It returns the payload.
func (b *ladderBed) store(name string, size int, sparse bool) []byte {
	b.t.Helper()
	sess, err := b.nodes[0].OpenSession()
	if err != nil {
		b.t.Fatal(err)
	}
	defer sess.Close()
	var data []byte
	if sparse {
		if err := sess.CreateObject(name, "bin", nil); err != nil {
			b.t.Fatal(err)
		}
		_, err = sess.StoreObject(name, nil, int64(size), StoreOptions{Blocking: true})
	} else {
		data = ladderPayload(name, size)
		_, err = sess.StoreObjectData(name, "bin", data, StoreOptions{Blocking: true})
	}
	if err != nil {
		b.t.Fatal(err)
	}
	return data
}

// seedCloud gives the scenario's cloud its own copy of a stored object.
func (b *ladderBed) seedCloud(name string) {
	b.t.Helper()
	meta, _, err := b.nodes[0].getMeta(name)
	if err != nil {
		b.t.Fatal(err)
	}
	obj := objstore.Object{Name: name, Type: meta.Type, Size: meta.Size, Owner: meta.Owner}
	if err := b.cloud.Seed(obj, ladderPayload(name, int(meta.Size))); err != nil {
		b.t.Fatal(err)
	}
}

// dropPrimaryCopy deletes the primary's bin object behind the metadata's
// back, so the primary is alive but lacks the payload.
func (b *ladderBed) dropPrimaryCopy(name string) {
	b.t.Helper()
	if err := b.nodes[0].store.Delete(name); err != nil {
		b.t.Fatal(err)
	}
}

// crash removes the given nodes ungracefully, now.
func (b *ladderBed) crash(idx ...int) {
	b.t.Helper()
	for _, i := range idx {
		if err := b.home.RemoveNode(b.nodes[i].addr, false); err != nil {
			b.t.Fatal(err)
		}
	}
}

// crashAfter crashes the given nodes d from now, concurrently with
// whatever the caller does next; the returned func joins the crash.
func (b *ladderBed) crashAfter(d time.Duration, idx ...int) func() {
	g := vclock.NewGroup(b.v)
	g.Go(func() {
		b.v.Sleep(d)
		b.crash(idx...)
	})
	return g.Wait
}

// ladderCounters are the counters a fetch line reports the change of.
type ladderCounters [9]int64

func (b *ladderBed) counters() ladderCounters {
	var c ladderCounters
	for _, n := range b.nodes {
		st := n.OpStats()
		for i, v := range []int64{st.FetchRetries, st.CloudProbes, st.ShardReconstructs,
			st.CacheHits, st.CacheMisses, st.CoalescedFetches} {
			c[i] += v
		}
	}
	seen := map[*Home]bool{}
	for _, n := range b.nodes {
		if !seen[n.home] {
			seen[n.home] = true
			m, x, by := n.home.Net().Traffic()
			c[6], c[7], c[8] = c[6]+m, c[7]+x, c[8]+by
		}
	}
	return c
}

func (c ladderCounters) since(before ladderCounters) string {
	return fmt.Sprintf("retries+%d probes+%d reconstructs+%d hits+%d misses+%d coalesced+%d msgs+%d xfers+%d bytes+%d",
		c[0]-before[0], c[1]-before[1], c[2]-before[2], c[3]-before[3], c[4]-before[4],
		c[5]-before[5], c[6]-before[6], c[7]-before[7], c[8]-before[8])
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func errText(err error) string {
	if err == nil {
		return "-"
	}
	return err.Error()
}

// line writes one fetch: the caller-observed elapsed virtual time (which
// a failed fetch's zero breakdown does not show), the breakdown, the
// counter and traffic changes, and the bytes.
func (b *ladderBed) line(label string, elapsed time.Duration, res FetchResult, err error, delta string) {
	bd := res.Breakdown
	fmt.Fprintf(b.out, "%s/%s src=%q elapsed=%d dht=%d inter_node=%d inter_domain=%d retries=%d total=%d %s sha=%s err=%q\n",
		b.name, label, res.Source, elapsed, bd.DHTLookup, bd.InterNode, bd.InterDomain, bd.Retries, bd.Total,
		delta, digest(res.Data), errText(err))
}

// fetch runs one FetchObject from node reader and writes its line.
func (b *ladderBed) fetch(label string, reader int, name string) {
	b.t.Helper()
	sess, err := b.nodes[reader].OpenSession()
	if err != nil {
		b.t.Fatal(err)
	}
	defer sess.Close()
	before, start := b.counters(), b.v.Now()
	res, err := sess.FetchObject(name)
	b.line(label, b.v.Now().Sub(start), res, err, b.counters().since(before))
}

// moveInput runs the process path's input move of name to target and
// writes its line.
func (b *ladderBed) moveInput(label string, from int, name, target string) {
	b.t.Helper()
	n := b.nodes[from]
	meta, _, err := n.getMeta(name)
	if err != nil {
		b.t.Fatal(err)
	}
	before := b.counters()
	data, d, err := n.moveInput(meta, target, nil)
	fmt.Fprintf(b.out, "%s/%s move=%d %s sha=%s err=%q\n",
		b.name, label, d, b.counters().since(before), digest(data), errText(err))
}

// ladderScenarios reach every rung of the fetch ladder that no experiment
// golden does, each on a home of its own.
func ladderScenarios() []ladderScenario {
	replica := []int64{1, 4, 1}         // replica on n01; n02 reads
	stripes := []int64{1, 4, 3, 1}      // replicas on n01, n02; n03 reads
	shards := []int64{1, 5, 4, 3, 1, 1} // shards on n01, n02, n03; n05 reads
	var scs []ladderScenario

	scs = append(scs, ladderScenario{name: "paper", voluntaryGB: []int64{1, 1, 1}, run: func(b *ladderBed) {
		b.store("sparse.bin", 4*mb, true)
		b.store("doc.bin", mb, false)
		b.fetch("remote-sparse", 1, "sparse.bin")
		b.fetch("remote", 1, "doc.bin")
		b.fetch("local", 0, "doc.bin")
		b.store("stale.bin", mb, false)
		b.dropPrimaryCopy("stale.bin")
		b.fetch("primary-lacks-copy", 1, "stale.bin")
		b.crash(0)
		b.fetch("holder-gone", 1, "doc.bin")
	}})

	scs = append(scs, ladderScenario{name: "fallback", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1, Fallback: true},
		run: func(b *ladderBed) {
			b.store("a.bin", 8*mb, false)
			b.store("b.bin", 8*mb, false)
			b.store("sparse.bin", 8*mb, true)
			b.store("stale.bin", 8*mb, false)
			b.dropPrimaryCopy("stale.bin")
			b.fetch("primary-lacks-copy", 2, "stale.bin")
			wait := b.crashAfter(300*time.Millisecond, 0)
			b.fetch("crash-mid", 2, "b.bin")
			wait()
			b.fetch("whole-copy", 2, "a.bin")
			b.fetch("whole-copy-sparse", 2, "sparse.bin")
		}})

	striped := Config{StripedFetch: true, ErasureK: 1, ErasureN: 2}
	scs = append(scs, ladderScenario{name: "striped", voluntaryGB: stripes, cfg: striped, run: func(b *ladderBed) {
		b.store("s.bin", 8*mb, false)
		b.store("sparse.bin", 8*mb, true)
		b.store("odd.bin", 8*mb+5, false)
		b.fetch("all-live", 3, "s.bin")
		b.fetch("all-live-sparse", 3, "sparse.bin")
		wait := b.crashAfter(100*time.Millisecond, 1)
		b.fetch("one-crash", 3, "odd.bin")
		wait()
	}})
	scs = append(scs, ladderScenario{name: "striped/all-but-one", voluntaryGB: stripes, cfg: striped, run: func(b *ladderBed) {
		b.store("s.bin", 8*mb, false)
		wait := b.crashAfter(100*time.Millisecond, 1, 2)
		b.fetch("crash-mid", 3, "s.bin")
		wait()
		b.fetch("one-holder", 3, "s.bin")
	}})
	striped.Fallback = true
	scs = append(scs, ladderScenario{name: "striped+fallback/all", voluntaryGB: stripes, cfg: striped, run: func(b *ladderBed) {
		b.store("s.bin", 8*mb, false)
		b.seedCloud("s.bin")
		wait := b.crashAfter(100*time.Millisecond, 0, 1, 2)
		b.fetch("crash-mid", 3, "s.bin")
		wait()
	}})

	scs = append(scs, ladderScenario{name: "gather", voluntaryGB: shards,
		cfg: Config{Fallback: true, ErasureK: 2, ErasureN: 3},
		run: func(b *ladderBed) {
			b.store("g1.bin", 6*mb, false)
			b.store("g2.bin", 6*mb, false)
			b.store("g3.bin", 6*mb, false)
			b.store("sparse.bin", 6*mb, true)
			b.crash(0)
			b.fetch("2-of-3", 5, "g1.bin")
			b.fetch("2-of-3-sparse", 5, "sparse.bin")
			wait := b.crashAfter(50*time.Millisecond, 1)
			b.fetch("holder-dies", 5, "g2.bin")
			wait()
			b.fetch("local-piece", 3, "g3.bin")
			b.crash(2)
			b.fetch("too-few", 5, "g3.bin")
		}})

	scs = append(scs, ladderScenario{name: "cloud", voluntaryGB: []int64{1, 1, 1},
		cfg: Config{Fallback: true},
		run: func(b *ladderBed) {
			b.store("hit.bin", 2*mb, false)
			b.store("miss.bin", 2*mb, false)
			b.seedCloud("hit.bin")
			b.crash(0)
			b.fetch("hit", 1, "hit.bin")
			b.fetch("miss", 1, "miss.bin")
		}})

	scs = append(scs, ladderScenario{name: "local", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1, CacheBytes: 64 * mb},
		run: func(b *ladderBed) {
			b.store("r.bin", 2*mb, false)
			b.fetch("replica", 1, "r.bin")
			b.fetch("cache-miss", 2, "r.bin")
			b.fetch("cache-hit", 2, "r.bin")
		}})

	scs = append(scs, ladderScenario{name: "coalesce", voluntaryGB: []int64{1, 1},
		cfg: Config{CoalesceFetch: true},
		run: func(b *ladderBed) {
			b.store("hot.bin", 704<<10, false)
			const k = 4
			res := make([]FetchResult, k)
			errs := make([]error, k)
			elapsed := make([]time.Duration, k)
			before := b.counters()
			g := vclock.NewGroup(b.v)
			for w := 0; w < k; w++ {
				g.Go(func() {
					sess, err := b.nodes[1].OpenSession()
					if err != nil {
						errs[w] = err
						return
					}
					defer sess.Close()
					b.v.Sleep(time.Duration(w) * 500 * time.Microsecond)
					start := b.v.Now()
					res[w], errs[w] = sess.FetchObject("hot.bin")
					elapsed[w] = b.v.Now().Sub(start)
				})
			}
			g.Wait()
			delta := b.counters().since(before)
			for w := 0; w < k; w++ {
				b.line(fmt.Sprintf("fetcher-%d", w), elapsed[w], res[w], errs[w], "group:"+delta)
			}
		}})

	scs = append(scs, ladderScenario{name: "repair", voluntaryGB: shards,
		cfg: Config{Fallback: true, Repair: true, ErasureK: 2, ErasureN: 3},
		run: func(b *ladderBed) {
			b.store("r.bin", 6*mb, false)
			before := b.counters()
			start := b.v.Now()
			b.crash(0)
			var restored, repaired int64
			for _, n := range b.nodes {
				restored += n.OpStats().ShardsRestored
				repaired += n.OpStats().ObjectsRepaired
			}
			fmt.Fprintf(b.out, "%s/crash elapsed=%d repaired=%d restored=%d %s\n",
				b.name, b.v.Now().Sub(start), repaired, restored, b.counters().since(before))
			b.fetch("after-repair", 5, "r.bin")
		}})

	scs = append(scs, ladderScenario{name: "moveinput", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1, Fallback: true},
		run: func(b *ladderBed) {
			b.store("m1.bin", 2*mb, false)
			b.store("m2.bin", 2*mb, false)
			b.seedCloud("m2.bin")
			b.crash(0)
			target := b.nodes[2].addr
			b.moveInput("peer-whole-copy", 2, "m1.bin", target)
			b.moveInput("cloud-target-probe-hit", 2, "m2.bin", CloudServiceAddr+"i1")
			b.moveInput("cloud-target-whole-copy", 2, "m1.bin", CloudServiceAddr+"i1")
			b.crash(1)
			b.moveInput("peer-cloud", 2, "m2.bin", target)
			b.moveInput("peer-none", 2, "m1.bin", target)
		}})

	// The input move of a coded object whose primary crashed; with
	// Fallback, of an object whose live primary lost its copy; without
	// Fallback, of an object whose holder is gone or lost its copy.
	scs = append(scs, ladderScenario{name: "moveinput/coded", voluntaryGB: shards,
		cfg: Config{Fallback: true, ErasureK: 2, ErasureN: 3},
		run: func(b *ladderBed) {
			b.store("c.bin", 6*mb, false)
			b.crash(0)
			b.moveInput("primary-gone", 5, "c.bin", b.nodes[4].addr)
		}})
	scs = append(scs, ladderScenario{name: "moveinput/stale", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1, Fallback: true},
		run: func(b *ladderBed) {
			b.store("s.bin", 2*mb, false)
			b.dropPrimaryCopy("s.bin")
			b.moveInput("primary-lacks-copy", 2, "s.bin", b.nodes[2].addr)
		}})
	scs = append(scs, ladderScenario{name: "moveinput/no-fallback", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1},
		run: func(b *ladderBed) {
			b.store("s.bin", 2*mb, false)
			b.store("g.bin", 2*mb, false)
			b.dropPrimaryCopy("s.bin")
			b.moveInput("primary-lacks-copy", 2, "s.bin", b.nodes[2].addr)
			b.crash(0)
			b.moveInput("holder-gone", 2, "g.bin", b.nodes[2].addr)
		}})

	// Neighbour homes, one per Fallback value, reading from a home whose
	// primary crashed: the federated fetch substitutes the replica only
	// with Fallback on.
	scs = append(scs, ladderScenario{name: "federated", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1},
		run: func(b *ladderBed) {
			b.store("f.bin", 2*mb, false)
			b.crash(0)
			for i, fallback := range []bool{false, true} {
				home := NewHome(b.v, HomeOptions{Seed: 5, Config: Config{Fallback: fallback}})
				n, err := home.AddNode(NodeConfig{Addr: fmt.Sprintf("a%d:9000", i), Machine: atomSpec("a"), MandatoryBytes: GB})
				if err != nil {
					b.t.Fatal(err)
				}
				b.nodes = append(b.nodes, n)
				home.Federate(b.home)
			}
			b.fetch("no-fallback", 3, "f.bin")
			b.fetch("whole-copy", 4, "f.bin")
		}})

	// Zero-byte objects skip the striped rung, so the primary pull, and
	// with Fallback the whole-copy pull, move them as a bare message.
	for _, fallback := range []bool{false, true} {
		scs = append(scs, ladderScenario{name: fmt.Sprintf("zero-byte/fallback=%v", fallback), voluntaryGB: stripes,
			cfg: Config{StripedFetch: true, ErasureK: 1, ErasureN: 2, Fallback: fallback},
			run: func(b *ladderBed) {
				b.store("empty.bin", 0, false)
				b.store("empty2.bin", 0, true)
				b.fetch("striped-empty", 3, "empty.bin")
				b.fetch("striped-empty-sparse", 3, "empty2.bin")
				b.crash(0)
				b.fetch("after-primary-crash", 3, "empty.bin")
			}})
	}

	// A fetch from a node whose own primary lost its copy, with Fallback
	// off and on; an input move to a target that holds a listed replica;
	// an input move to the object's location once that node has departed.
	for _, fallback := range []bool{false, true} {
		scs = append(scs, ladderScenario{name: fmt.Sprintf("local-stale/fallback=%v", fallback), voluntaryGB: replica,
			cfg: Config{ErasureK: 1, ErasureN: 1, Fallback: fallback},
			run: func(b *ladderBed) {
				b.store("s.bin", 2*mb, false)
				b.dropPrimaryCopy("s.bin")
				b.fetch("local-primary-lacks-copy", 0, "s.bin")
			}})
	}
	scs = append(scs, ladderScenario{name: "moveinput/replica-target", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1},
		run: func(b *ladderBed) {
			b.store("m.bin", 2*mb, false)
			b.moveInput("replica-at-target", 2, "m.bin", b.nodes[1].addr)
		}})
	scs = append(scs, ladderScenario{name: "moveinput/location-departed", voluntaryGB: replica,
		cfg: Config{ErasureK: 1, ErasureN: 1},
		run: func(b *ladderBed) {
			b.store("m.bin", 2*mb, false)
			b.crash(0)
			b.moveInput("target-is-location", 2, "m.bin", b.nodes[0].addr)
		}})

	return scs
}

// TestFetchLadderTranscript runs every rung of the fetch ladder — direct,
// striped, whole-copy and shard fallbacks, the cloud rung, the
// local replica and dom0 cache, coalesced followers, repair's gather, the
// federated and input-move substitutes — and requires each operation's
// breakdown, counters, traffic and bytes to equal the frozen transcript.
func TestFetchLadderTranscript(t *testing.T) {
	var sb strings.Builder
	for _, sc := range ladderScenarios() {
		runLadderScenario(t, sc, &sb)
	}
	got := sb.String()

	path := filepath.Join("testdata", "golden", "fetch_ladder.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript diverged at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript length diverged: got %d lines, want %d", len(gl), len(wl))
	}
}
