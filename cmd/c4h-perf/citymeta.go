//go:build linux

package main

import (
	"encoding/binary"
	"fmt"

	"cloud4home/internal/cluster"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/trace"
)

const (
	cityHomes = 1000
	cityOps   = 200_000 // at scale 1
	cityKeys  = 4096
	// cityValueLen is the size of a metadata record's stand-in.
	cityValueLen = 64
)

// cityMeta is the metadata plane alone: one actor issuing kv puts and
// gets from random homes of a city-sized flat overlay.
type cityMeta struct {
	city *cluster.City
	ops  []trace.PopulationOp
	keys []ids.ID
}

func prepareCityMeta(seed int64, scale float64) (func() (testbed, error), error) {
	homes := shrunk(cityHomes, scale, 50)
	ops, err := trace.GeneratePopulation(trace.PopulationConfig{
		Seed:          seed,
		Homes:         homes,
		Objects:       cityKeys,
		Ops:           scaled(cityOps, scale, 400),
		StoreFraction: 0.4,
	})
	if err != nil {
		return nil, err
	}
	keys := make([]ids.ID, cityKeys)
	for i := range keys {
		keys[i] = ids.HashString(cityKeyName(i))
	}
	return func() (testbed, error) {
		city, err := cluster.NewCity(cluster.CityOptions{Seed: testbedSeed, Homes: homes})
		if err != nil {
			return nil, err
		}
		return &cityMeta{city: city, ops: ops, keys: keys}, nil
	}, nil
}

func cityKeyName(i int) string { return fmt.Sprintf("city/%06d", i) }

func (c *cityMeta) close() {}

func (c *cityMeta) env() *probeEnv {
	names := make([]string, cityKeys)
	for i := range names {
		names[i] = cityKeyName(i)
	}
	return &probeEnv{v: c.city.V, home: c.city.Home, nodes: c.city.Nodes, names: names}
}

func (c *cityMeta) run(m *meter, rec *recorder) (*phase, error) {
	city := c.city
	kvs := city.Home.KV()
	recs := make([]opRec, 0, len(c.ops))
	versions := make([]uint32, cityKeys)
	var buf [cityValueLen]byte
	ph := &phase{layer: map[string]float64{}}
	rec.open(1, len(c.ops))

	var getHops, putHops, stale float64
	city.Run(func() {
		before := readTraffic(city.Home)
		lookups0, hits0, _ := kvs.Stats().Snapshot()
		virt0 := city.V.Now()
		m.start(len(c.ops), meterSegments)
		for i, op := range c.ops {
			from := city.Nodes[op.Home].ID()
			key := c.keys[op.Object]
			t0 := city.V.Now()
			if op.Kind == trace.OpStore {
				versions[op.Object]++
				binary.BigEndian.PutUint32(buf[0:], uint32(op.Object))
				binary.BigEndian.PutUint32(buf[4:], versions[op.Object])
				sp := rec.begin("kv.put", 0, i, t0.Sub(cluster.Epoch))
				pr, err := kvs.Put(from, key, buf[:], kv.Overwrite)
				t1 := city.V.Now()
				rec.end(sp, t1.Sub(cluster.Epoch))
				m.tick()
				recs = append(recs, opRec{kind: kindPut, ok: err == nil, total: t1.Sub(t0), size: int64(pr.Hops)})
				putHops += float64(pr.Hops)
				continue
			}
			sp := rec.begin("kv.get", 0, i, t0.Sub(cluster.Epoch))
			gr, err := kvs.Get(from, key)
			t1 := city.V.Now()
			rec.end(sp, t1.Sub(cluster.Epoch))
			m.tick()
			recs = append(recs, opRec{kind: kindGet, ok: err == nil, total: t1.Sub(t0), size: int64(gr.Hops)})
			getHops += float64(gr.Hops)
			if err != nil {
				continue
			}
			// A get must return a value this run put under that key. It
			// need not be the newest: a path cache filled from another
			// cache is not refreshed by later puts (README, known issues),
			// so the share of such reads is reported, not failed.
			d := gr.Value.Data
			if len(d) != cityValueLen || binary.BigEndian.Uint32(d[0:]) != uint32(op.Object) {
				ph.violate("get %s: value belongs to another key", cityKeyName(op.Object))
				continue
			}
			switch v := binary.BigEndian.Uint32(d[4:]); {
			case v == 0 || v > versions[op.Object]:
				ph.violate("get %s: version %d was never put (latest %d)", cityKeyName(op.Object), v, versions[op.Object])
			case v < versions[op.Object]:
				stale++
			}
		}
		m.stop()
		ph.clientElapsed = city.V.Now().Sub(virt0)

		readTraffic(city.Home).fill(ph.layer, before, float64(m.cost.ops))
		lookups1, hits1, _ := kvs.Stats().Snapshot()
		ph.layer["kv.cache_hit_share"] = ratio(float64(hits1-hits0), float64(lookups1-lookups0))
	})

	d := newDigester()
	var gets, puts float64
	for _, r := range recs {
		ph.attempted++
		if !r.ok {
			ph.failed++
		}
		d.num(int64(r.kind))
		d.num(int64(r.total))
		d.num(r.size)
		if !r.ok {
			continue
		}
		ph.payloadBytes += cityValueLen
		if r.kind == kindGet {
			gets++
			ph.reads = append(ph.reads, ms(r.total))
		} else {
			puts++
			ph.writes = append(ph.writes, ms(r.total))
		}
	}
	ph.digest = d.sum()
	ph.layer["kv.hops_per_get"] = ratio(getHops, gets)
	ph.layer["kv.hops_per_put"] = ratio(putHops, puts)
	ph.layer["kv.stale_read_share"] = ratio(stale, gets)
	ph.layer["kv.get.virt_p99_ms"] = percentile(ph.reads, 0.99)
	ph.layer["overlay.arena_bytes"] = float64(city.Nodes[0].OpStats().ArenaBytes)
	return ph, nil
}
