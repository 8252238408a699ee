//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/command"
	"cloud4home/internal/core"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/monitor"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/overlay"
	"cloud4home/internal/policy"
	"cloud4home/internal/rbtree"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
	"cloud4home/internal/xenchan"
)

// probeEnv is the workload's own home cloud, handed to the layer probes
// so they time each layer on the membership, keys and sizes the workload
// ran with.
type probeEnv struct {
	v     *vclock.Virtual
	home  *core.Home
	nodes []*core.Node
	// names are the workload's object or key names; sizes and images are
	// set where the workload has them.
	names    []string
	sizes    []int64
	images   [][]byte
	training [][]byte
}

// Each probe repetition is sized to last about prober.rep — probeRep,
// shrunk with the run for the smoke test — and the median of probeReps
// repetitions is reported.
const (
	probeRep  = 40 * time.Millisecond
	probeReps = 5
)

type prober struct {
	rep time.Duration
	// joins is the size of the mesh the join probe builds: city-meta's.
	joins int
}

// timeIt returns the median host time, in ns, of one call of fn's unit of
// work. fn(start, n) does n units, numbered from start so that units which
// create state can name it freshly.
func (p prober) timeIt(fn func(start, n int)) float64 {
	t0 := time.Now()
	fn(0, 1)
	one := time.Since(t0)
	n := 1
	if one < p.rep {
		n = int(p.rep / (one + 1))
	}
	next := 1
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		fn(next, n)
		per[r] = float64(time.Since(t0)) / float64(n)
		next += n
	}
	return median(per)
}

// usOf is ns in µs.
func usOf(ns float64) float64 { return ns / 1e3 }

// Results the compiler must not discard.
var (
	sinkID    ids.ID
	sinkInt   int
	sinkBytes []byte
)

// runProbes times the public entry points of each layer and fills the
// host_* per-layer metrics. A workload without an in-process home cloud
// (daemon-loopback) is probed on the default paper testbed.
func runProbes(env *probeEnv, scale float64, layer map[string]float64) error {
	p := prober{
		rep:   time.Duration(shrunk(int(probeRep), scale, int(time.Millisecond))),
		joins: shrunk(cityHomes, scale, 50),
	}
	if env == nil {
		tb, err := cluster.New(cluster.Options{Seed: testbedSeed})
		if err != nil {
			return err
		}
		env = &probeEnv{v: tb.V, home: tb.Home, nodes: tb.AllNodes()}
		for i := 0; i < 256; i++ {
			env.names = append(env.names, fmt.Sprintf("probe/%03d.bin", i))
		}
	}
	rng := rand.New(rand.NewSource(testbedSeed))
	if env.images == nil {
		env.images = [][]byte{synthImage(rng, 1<<20)}
		for i := 0; i < 8; i++ {
			env.training = append(env.training, synthImage(rng, 32<<10))
		}
	}
	keys := make([]ids.ID, len(env.names))
	for i, n := range env.names {
		keys[i] = ids.HashString(n)
	}
	var perr error
	fail := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}

	// ids, rbtree: no clock, no testbed.
	layer["ids.hash.host_ns"] = p.timeIt(func(s, n int) {
		for i := s; i < s+n; i++ {
			sinkID = ids.HashString(env.names[i%len(env.names)])
		}
	})
	const treeN = 2000
	members := make([]ids.ID, treeN)
	for i := range members {
		members[i] = ids.HashString(fmt.Sprintf("home-%06d:9000", i))
	}
	layer["rbtree.insert.host_ns"] = p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			t := rbtree.New[int]()
			for j, id := range members {
				t.Insert(id, j)
			}
		}
	}) / treeN
	full := rbtree.New[int]()
	for j, id := range members {
		full.Insert(id, j)
	}
	layer["rbtree.get.host_ns"] = p.timeIt(func(s, n int) {
		for i := s; i < s+n; i++ {
			sinkInt, _ = full.Get(members[i%treeN])
		}
	})

	// overlay: joins into a fresh flat mesh over a free wire, and routes
	// on the workload's own mesh.
	layer["overlay.join.host_us_per_node"] = usOf(p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			m := overlay.NewMesh(overlay.FreeWire{})
			for j := 0; j < p.joins; j++ {
				if _, err := m.Join(fmt.Sprintf("home-%06d:9000", j)); err != nil {
					fail(err)
				}
			}
		}
	})) / float64(p.joins)
	layer["overlay.arena_bytes"] = float64(env.nodes[0].OpStats().ArenaBytes)

	// Everything below sleeps on the testbed's virtual clock, so it runs
	// as a registered worker.
	env.v.Run(func() {
		mesh, kvs, net := env.home.Mesh(), env.home.KV(), env.home.Net()
		from := func(i int) ids.ID { return env.nodes[i%len(env.nodes)].ID() }
		layer["overlay.route.host_ns_per_call"] = p.timeIt(func(s, n int) {
			for i := s; i < s+n; i++ {
				_, err := mesh.Route(from(i), keys[i%len(keys)])
				fail(err)
			}
		})

		var value [64]byte
		probeKey := func(i int) ids.ID { return ids.HashString(fmt.Sprintf("probe/kv/%03d", i%256)) }
		layer["kv.put.host_ns_per_call"] = p.timeIt(func(s, n int) {
			for i := s; i < s+n; i++ {
				_, err := kvs.Put(from(i), probeKey(i), value[:], kv.Overwrite)
				fail(err)
			}
		})
		for i := 0; i < 256; i++ {
			_, err := kvs.Put(from(i), probeKey(i), value[:], kv.Overwrite)
			fail(err)
		}
		layer["kv.get.host_ns_per_call"] = p.timeIt(func(s, n int) {
			for i := s; i < s+n; i++ {
				_, err := kvs.Get(from(i), probeKey(i))
				fail(err)
			}
		})

		a, b := env.nodes[0], env.nodes[1]
		path := netsim.HomePath(a.NIC(), b.NIC(), env.home.Fabric())
		layer["netsim.message.host_ns_per_call"] = p.timeIt(func(_, n int) {
			for i := 0; i < n; i++ {
				net.Message(path)
			}
		})
		layer["netsim.transfer.host_us_per_call"] = usOf(p.timeIt(func(_, n int) {
			for i := 0; i < n; i++ {
				net.Transfer(path, 10<<20)
			}
		}))

		fail(b.Monitor().PublishOnce())
		layer["monitor.lookup.host_us_per_call"] = usOf(p.timeIt(func(_, n int) {
			for i := 0; i < n; i++ {
				_, err := monitor.Lookup(kvs, a.ID(), b.Addr())
				fail(err)
			}
		}))

		p.core(env, layer, fail)
	})

	ctx := policy.StoreContext{
		Object:             objstore.Object{Name: "probe/policy.bin", Size: 17 << 20},
		LocalMandatoryFree: 1 << 30,
		CloudAvailable:     true,
	}
	for _, n := range env.nodes[:min(len(env.nodes), 6)] {
		ctx.Peers = append(ctx.Peers, policy.PeerSpace{Addr: n.Addr(), VoluntaryFree: 2 << 30})
	}
	layer["policy.decide.host_ns_per_call"] = p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			d, err := policy.DefaultLocal{}.Decide(ctx)
			fail(err)
			sinkInt = int(d.Target)
		}
	})

	p.clock(layer)
	fail(p.bytes(env, layer))

	pkt := command.Packet{Type: command.TypeStore, ServiceID: 1, DomainID: 1, ShmRef: 1, Data: []byte(env.names[0])}
	wire, err := pkt.MarshalBinary()
	fail(err)
	layer["command.marshal.host_ns"] = p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			sinkBytes, _ = pkt.MarshalBinary()
		}
	})
	layer["command.unmarshal.host_ns"] = p.timeIt(func(_, n int) {
		var p command.Packet
		for i := 0; i < n; i++ {
			fail(p.UnmarshalBinary(wire))
		}
	})
	return perr
}

// core replays store, fetch and delete through one session of the
// workload's first node, on sparse objects of the workload's own sizes,
// and FetchProcess where the workload deployed services. One actor, so
// the clock never hands over: this is core's own host cost per op. Like
// a home-trace client it keeps a short window of its own objects live,
// so the bins stay as full as the workload left them.
func (p prober) core(env *probeEnv, layer map[string]float64, fail func(error)) {
	sess, err := env.nodes[0].OpenSession()
	if err != nil {
		fail(err)
		return
	}
	defer sess.Close()
	size := func(i int) int64 {
		if len(env.sizes) == 0 {
			return 1 << 20
		}
		return env.sizes[i%len(env.sizes)]
	}
	name := func(i int) string { return fmt.Sprintf("probe/core/%06d.bin", i) }
	var store, fetch, del time.Duration
	round := func(i int) {
		t0 := time.Now()
		fail(sess.CreateObject(name(i), "bin", nil))
		_, err := sess.StoreObject(name(i), nil, size(i), core.StoreOptions{Blocking: true})
		t1 := time.Now()
		fail(err)
		_, err = sess.FetchObject(name(i))
		t2 := time.Now()
		fail(err)
		store, fetch = store+t1.Sub(t0), fetch+t2.Sub(t1)
		if i >= deleteLag {
			fail(sess.DeleteObject(name(i - deleteLag)))
			del += time.Since(t2)
		}
	}
	t0 := time.Now()
	for i := 0; i < deleteLag+1; i++ {
		round(i)
	}
	per := int(p.rep / (time.Since(t0)/(deleteLag+1) + 1))
	if per < 2 {
		per = 2
	}
	var stores, fetches, dels []float64
	next := deleteLag + 1
	for r := 0; r < probeReps; r++ {
		store, fetch, del = 0, 0, 0
		for i := 0; i < per; i++ {
			round(next)
			next++
		}
		stores = append(stores, usOf(float64(store))/float64(per))
		fetches = append(fetches, usOf(float64(fetch))/float64(per))
		dels = append(dels, usOf(float64(del))/float64(per))
	}
	layer["core.store.host_us_per_op"] = median(stores)
	layer["core.fetch.host_us_per_op"] = median(fetches)
	layer["core.delete.host_us_per_op"] = median(dels)

	layer["core.process.host_us_per_op"] = 0
	if len(env.sizes) == len(env.images) && len(env.images) > 1 {
		specs := services.Builtin()
		layer["core.process.host_us_per_op"] = usOf(p.timeIt(func(s, n int) {
			for i := s; i < s+n; i++ {
				spec := specs[i%len(specs)]
				_, err := sess.FetchProcess(env.names[i%len(env.names)], spec.Name, spec.ID)
				fail(err)
			}
		}))
	}
}

// clock times Virtual.Sleep on a clock of its own: alone, where a
// sleeper wakes itself, and with six actors, where every sleep hands the
// processor to another goroutine.
func (p prober) clock(layer map[string]float64) {
	layer["vclock.sleep.host_ns_1actor"] = p.timeIt(func(_, n int) {
		v := vclock.NewVirtual(cluster.Epoch)
		v.Run(func() {
			for i := 0; i < n; i++ {
				v.Sleep(time.Millisecond)
			}
		})
	})
	const actors = 6
	layer["vclock.sleep.host_ns_6actors"] = p.timeIt(func(_, n int) {
		v := vclock.NewVirtual(cluster.Epoch)
		v.Run(func() {
			var wg sync.WaitGroup
			for a := 0; a < actors; a++ {
				a := a
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						v.Sleep(time.Duration(a+1) * time.Millisecond)
					}
				})
			}
			v.Block(wg.Wait)
		})
	}) / actors
}

// bytes times the layers that touch real payload bytes: the guest
// channel, the object store and the service kernels.
func (p prober) bytes(env *probeEnv, layer map[string]float64) error {
	const mb = 1 << 20
	img := env.images[0]
	perMB := func(ns float64, n int) float64 { return usOf(ns) * mb / float64(n) }

	v := vclock.NewVirtual(cluster.Epoch)
	var cerr error
	v.Run(func() {
		ch, err := xenchan.Open(v, xenchan.DefaultConfig())
		if err != nil {
			cerr = err
			return
		}
		defer ch.Close()
		var virt time.Duration
		host := p.timeIt(func(_, n int) {
			for i := 0; i < n; i++ {
				sinkBytes, virt, cerr = ch.Transfer(img)
			}
		})
		layer["xenchan.transfer.host_us_per_mb"] = perMB(host, len(img))
		layer["xenchan.cost.virt_ms_per_mb"] = ms(virt) * mb / float64(len(img))
	})
	if cerr != nil {
		return cerr
	}

	st := objstore.NewMem(1<<40, 0)
	put := func(i int) error {
		return st.Put(objstore.Mandatory, objstore.Object{Name: fmt.Sprintf("probe/obj/%d", i), Size: int64(len(img))}, img)
	}
	next := 0
	layer["objstore.put.host_us_per_mb"] = perMB(p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			if err := put(next); err != nil {
				cerr = err
			}
			// Keep the store small: the probe times the copy in, not a
			// growing heap.
			if next >= 32 {
				st.Delete(fmt.Sprintf("probe/obj/%d", next-32))
			}
			next++
		}
	}), len(img))
	live := min(next, 32)
	layer["objstore.get.host_us_per_mb"] = perMB(p.timeIt(func(s, n int) {
		for i := s; i < s+n; i++ {
			_, data, err := st.Get(fmt.Sprintf("probe/obj/%d", next-1-i%live))
			if err != nil {
				cerr = err
			}
			sinkBytes = data
		}
	}), len(img))
	if cerr != nil {
		return cerr
	}

	mbps := func(ns float64) float64 { return float64(len(img)) / mb / (ns / 1e9) }
	layer["services.fdet.host_mb_per_s"] = mbps(p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			hits, err := services.DetectFaces(img)
			if err != nil {
				cerr = err
			}
			sinkInt = len(hits)
		}
	}))
	layer["services.frec.host_mb_per_s"] = mbps(p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			sinkInt, cerr = services.RecognizeFace(img, env.training)
		}
	}))
	layer["services.x264.host_mb_per_s"] = mbps(p.timeIt(func(_, n int) {
		for i := 0; i < n; i++ {
			sinkBytes, cerr = services.ConvertVideo(img)
		}
	}))
	return cerr
}
