package kv

import (
	"fmt"
	"testing"

	"cloud4home/internal/ids"
	"cloud4home/internal/overlay"
)

func benchStore(b *testing.B, n int, opts Options) (*Store, []ids.ID) {
	b.Helper()
	wire := overlay.FreeWire{}
	mesh := overlay.NewMesh(wire)
	st := New(mesh, wire, opts)
	var nodeIDs []ids.ID
	for i := 0; i < n; i++ {
		r, err := mesh.Join(fmt.Sprintf("kvbench-%d:1", i))
		if err != nil {
			b.Fatal(err)
		}
		st.Attach(r.Self().ID)
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	return st, nodeIDs
}

func BenchmarkPut(b *testing.B) {
	st, nodes := benchStore(b, 8, Options{})
	val := []byte(`{"location":"netbook-3:9000","size":1048576}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put(nodes[i%len(nodes)], ids.ID(i)&ids.Max(), val, Overwrite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutReplicated(b *testing.B) {
	st, nodes := benchStore(b, 8, Options{ReplicationFactor: 2})
	val := []byte(`{"location":"netbook-3:9000","size":1048576}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put(nodes[i%len(nodes)], ids.ID(i)&ids.Max(), val, Overwrite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutRefreshesCaches overwrites one key whose owner has 32 warm
// path caches to refresh and two replicas to push to: the profiling entry
// point for the write path's fan-out.
func BenchmarkPutRefreshesCaches(b *testing.B) {
	const caches = 32
	st, nodes := benchStore(b, caches+8, Options{ReplicationFactor: 2, CacheEnabled: true})
	key := ids.HashString("bench-key")
	val := []byte(`{"location":"netbook-3:9000","size":1048576}`)
	pr, err := st.Put(nodes[0], key, val, Overwrite)
	if err != nil {
		b.Fatal(err)
	}
	os, err := st.node(pr.Owner)
	if err != nil {
		b.Fatal(err)
	}
	var path []ids.ID
	for _, n := range nodes {
		if n != pr.Owner && len(path) < caches {
			path = append(path, n)
		}
	}
	st.populatePathCaches(key, os.entry(key), path, pr.Owner)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put(pr.Owner, key, val, Overwrite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetUncached(b *testing.B) {
	st, nodes := benchStore(b, 8, Options{})
	key := ids.HashString("bench-key")
	if _, err := st.Put(nodes[0], key, []byte("v"), Overwrite); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(nodes[i%len(nodes)], key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetCached(b *testing.B) {
	st, nodes := benchStore(b, 8, Options{CacheEnabled: true})
	key := ids.HashString("bench-key")
	if _, err := st.Put(nodes[0], key, []byte("v"), Overwrite); err != nil {
		b.Fatal(err)
	}
	for _, n := range nodes {
		if _, err := st.Get(n, key); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(nodes[i%len(nodes)], key); err != nil {
			b.Fatal(err)
		}
	}
}
