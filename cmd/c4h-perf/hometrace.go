//go:build linux

package main

import (
	"fmt"
	"sync"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/policy"
	"cloud4home/internal/trace"
)

// testbedSeed fixes every testbed's simulated randomness; -seed drives
// only the generated inputs.
const testbedSeed = 2011

const (
	traceAccesses = 100_000 // at scale 1
	traceClients  = 6
	// deleteLag is how many of its own stores a client keeps before it
	// deletes the oldest, which holds the live set steady.
	deleteLag = 16
)

// homeTrace is the paper's §V-A mix in steady state: the six-node testbed
// plus the S3 clone, sparse objects, six closed-loop clients.
type homeTrace struct {
	tb       *cluster.Testbed
	tr       *trace.Trace
	sessions []*core.Session // one per node, netbooks first
	preload  int64           // bytes the read-set holds
}

func prepareHomeTrace(seed int64, scale float64) (func() (testbed, error), error) {
	// The read-set is part of the testbed, so its sizes are fixed; the
	// seed draws which client touches which file, and whether it stores
	// or fetches. The three smaller size classes (1–50 MB) let every
	// node hold its share of the read-set and its clients' live writes in
	// its own mandatory bin: no bin runs at the edge of full, where
	// placement would flip with a few megabytes of catalogue.
	cat := trace.Default(testbedSeed)
	cat.Classes = []trace.SizeClass{trace.Small, trace.Medium, trace.Large}
	cat.Accesses = 0
	catalogue, err := trace.Generate(cat)
	if err != nil {
		return nil, err
	}
	cfg := trace.Default(seed)
	cfg.Accesses = scaled(traceAccesses, scale, 200)
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	tr.Files = catalogue.Files
	return func() (testbed, error) { return setupHomeTrace(tr) }, nil
}

func setupHomeTrace(tr *trace.Trace) (testbed, error) {
	tb, err := cluster.New(cluster.Options{Seed: testbedSeed})
	if err != nil {
		return nil, err
	}
	h := &homeTrace{tb: tb, tr: tr}
	tb.Run(func() {
		for _, n := range tb.AllNodes() {
			var s *core.Session
			if s, err = n.OpenSession(); err != nil {
				return
			}
			h.sessions = append(h.sessions, s)
		}
		// The desktop, with four times a netbook's bin, takes every other
		// file; the netbooks take the rest in turn.
		desktop, netbooks := h.sessions[len(h.sessions)-1], h.sessions[:len(h.sessions)-1]
		for i, f := range tr.Files {
			s := desktop
			if i%2 == 1 {
				s = netbooks[(i/2)%len(netbooks)]
			}
			if err = s.CreateObject(f.Name, f.Type, f.Tags); err != nil {
				return
			}
			if _, err = s.StoreObject(f.Name, nil, f.Size, storeOpts); err != nil {
				return
			}
			h.preload += f.Size
		}
	})
	if err != nil {
		h.close()
		return nil, fmt.Errorf("home-trace set-up: %w", err)
	}
	return h, nil
}

// storeOpts is how every home-trace store is issued: blocking, and with
// the surveillance example's size rule sending the largest 2 % of objects
// to S3, so the cloud path carries a steady share that sits in the tail
// beyond p95 rather than on it.
var storeOpts = core.StoreOptions{
	Blocking: true,
	Policy:   policy.SizeThreshold{RemoteBytes: 48 << 20},
}

func (h *homeTrace) close() {
	for _, s := range h.sessions {
		s.Close()
	}
}

func (h *homeTrace) env() *probeEnv {
	names := make([]string, len(h.tr.Files))
	sizes := make([]int64, len(h.tr.Files))
	for i, f := range h.tr.Files {
		names[i], sizes[i] = f.Name, f.Size
	}
	return &probeEnv{v: h.tb.V, home: h.tb.Home, nodes: h.tb.AllNodes(), names: names, sizes: sizes}
}

func (h *homeTrace) run(m *meter, rec *recorder) (*phase, error) {
	tb := h.tb
	perClient := make([][]trace.Access, traceClients)
	for _, a := range h.tr.Accesses {
		perClient[a.Client] = append(perClient[a.Client], a)
	}
	// Names and record slices are made before the clock starts, so the
	// measured allocations are the system's.
	recs := make([][]opRec, traceClients)
	names := make([][]string, traceClients)
	expected, longest := 0, 0
	for c, as := range perClient {
		recs[c] = make([]opRec, 0, 2*len(as))
		for i, a := range as {
			if a.Kind == trace.OpStore {
				names[c] = append(names[c], fmt.Sprintf("w/%d/%d", c, i))
			}
		}
		expected += len(as)
		if n := len(names[c]) - deleteLag; n > 0 {
			expected += n
		}
		if len(as) > longest {
			longest = len(as)
		}
	}
	rec.open(traceClients, 2*longest)
	ph := &phase{layer: map[string]float64{}}
	fetched := make([]fetchTally, traceClients)
	storedT := make([]storeTally, traceClients)
	now := func() time.Duration { return tb.V.Now().Sub(cluster.Epoch) }

	tb.Run(func() {
		before := readTraffic(tb.Home)
		virt0 := now()
		m.start(expected, meterSegments)
		var wg sync.WaitGroup
		for c := 0; c < traceClients; c++ {
			c := c
			wg.Add(1)
			tb.V.Go(func() {
				defer wg.Done()
				// Staggered starts keep the run deterministic: the clock
				// then wakes one client at a time.
				tb.V.Sleep(time.Duration(c+1) * time.Microsecond)
				cl := simClient{id: c, sess: h.sessions[c], now: now, m: m, rec: rec}
				self := cl.sess.Node().Addr()
				stored := 0
				for i, a := range perClient[c] {
					f := h.tr.Files[a.File]
					if a.Kind == trace.OpFetch {
						sp := rec.begin("fetch", c, i, now())
						res, err := cl.sess.FetchObject(f.Name)
						b := res.Breakdown
						rec.end(sp, now(),
							part{"dht_lookup", b.DHTLookup}, part{"inter_node", b.InterNode},
							part{"inter_domain", b.InterDomain}, part{"retries", b.Retries})
						m.tick()
						recs[c] = append(recs[c], opRec{kindFetch, err == nil, b.Total, res.Meta.Size, res.Source})
						if err != nil {
							continue
						}
						if res.Meta.Size != f.Size || res.Data != nil {
							ph.violate("fetch %s: got %d bytes (data=%v), stored %d sparse", f.Name, res.Meta.Size, res.Data != nil, f.Size)
						}
						if !fetched[c].add(res, self) {
							ph.violate("fetch %s: phases exceed total %v", f.Name, b.Total)
						}
						continue
					}
					name := names[c][stored]
					sp := rec.begin("store", c, i, now())
					err := cl.sess.CreateObject(name, f.Type, nil)
					var res core.StoreResult
					if err == nil {
						res, err = cl.sess.StoreObject(name, nil, f.Size, storeOpts)
					}
					rec.end(sp, now(), part{"inter_domain", res.InterDomain}, part{"placement", res.Placement})
					m.tick()
					if err == nil && res.Target == policy.TargetLocal && res.Location != self {
						err = fmt.Errorf("local store landed on %s", res.Location)
					}
					recs[c] = append(recs[c], opRec{kindStore, err == nil, res.Total, f.Size, res.Target.String()})
					stored++
					if err != nil {
						continue
					}
					if !storedT[c].add(res) {
						ph.violate("store %s: phases exceed total %v", name, res.Total)
					}
					if stored > deleteLag {
						recs[c] = append(recs[c], cl.delete(names[c][stored-1-deleteLag], i))
					}
				}
			})
		}
		tb.V.Block(wg.Wait)
		m.stop()
		ph.clientElapsed = now() - virt0
		readTraffic(tb.Home).fill(ph.layer, before, float64(m.cost.ops))
	})

	// Fold the records: latencies, the digest and the live set.
	d := newDigester()
	live := h.preload
	for c := range recs {
		var mine []int64 // sizes of this client's stores, in order
		for _, r := range recs[c] {
			ph.attempted++
			if !r.ok {
				ph.failed++
			}
			d.num(int64(r.kind))
			d.num(int64(r.total))
			d.num(r.size)
			d.str(r.where)
			switch {
			case r.kind == kindStore:
				mine = append(mine, r.size)
				if r.ok {
					ph.writes = append(ph.writes, ms(r.total))
					ph.payloadBytes += r.size
					live += r.size
				}
			case r.kind == kindFetch && r.ok:
				ph.reads = append(ph.reads, ms(r.total))
				ph.payloadBytes += r.size
			case r.kind == kindDelete && r.ok:
				live -= mine[len(mine)-1-deleteLag]
			}
		}
	}
	ph.digest = d.sum()

	var fetches fetchTally
	var stores storeTally
	for c := range fetched {
		fetches.merge(fetched[c])
		stores.merge(storedT[c])
	}
	fetches.fill(ph.layer)
	stores.fill(ph.layer)
	ph.layer["core.fetch.virt_p99_ms"] = percentile(ph.reads, 0.99)
	ph.layer["core.store.virt_p99_ms"] = percentile(ph.writes, 0.99)
	checkOccupancy(ph, tb.AllNodes(), tb.Cloud.Spend().BytesStored, live)
	return ph, nil
}
