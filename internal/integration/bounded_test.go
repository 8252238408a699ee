package integration

import (
	"fmt"
	"reflect"
	"testing"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
)

// mapSizes walks everything reachable from root and returns the entry
// count of every map it meets, summed per field path (so the six nodes'
// kv slices report as one line). It reads unexported fields through
// reflection only — Len, MapRange, Elem — and never calls Interface, so
// it sees the memos and indexes no accessor exposes. Call it at a
// quiesce point: it takes no locks.
func mapSizes(root any) map[string]int {
	sizes := map[string]int{}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Map:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			sizes[path] += v.Len()
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"[]")
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		}
	}
	walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
	return sizes
}

// TestStateBoundedUnderFreshNames is the regression test for the memos
// that grew one entry per fresh object name: after 10 000 store+delete
// cycles of names never seen before, on the paper's 6-node testbed, every
// map reachable from the Home — its own memos, the kv store's per-node
// slices, the overlay, the nodes — holds exactly what it held after the
// first 1 000 cycles.
func TestStateBoundedUnderFreshNames(t *testing.T) {
	tb, err := cluster.New(cluster.Options{Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tb.AllNodes()
	cycles := func(from, to int) {
		tb.Run(func() {
			sessions := make([]*core.Session, len(nodes))
			for i, n := range nodes {
				if sessions[i], err = n.OpenSession(); err != nil {
					t.Error(err)
					return
				}
				defer sessions[i].Close()
			}
			for i := from; i < to; i++ {
				sess := sessions[i%len(sessions)]
				name := fmt.Sprintf("fresh/%06d", i)
				if err := sess.CreateObject(name, "bin", nil); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if _, err := sess.StoreObject(name, nil, 1<<20, core.StoreOptions{Blocking: true}); err != nil {
					t.Errorf("store %s: %v", name, err)
					return
				}
				// Read it from the next node over, so path caches and
				// cache-holder indexes fill before the delete.
				if _, err := sessions[(i+1)%len(sessions)].FetchObject(name); err != nil {
					t.Errorf("fetch %s: %v", name, err)
					return
				}
				if err := sess.DeleteObject(name); err != nil {
					t.Errorf("delete %s: %v", name, err)
					return
				}
			}
		})
	}
	cycles(0, 1_000)
	if t.Failed() {
		t.FailNow()
	}
	early := mapSizes(tb.Home)
	cycles(1_000, 10_000)
	late := mapSizes(tb.Home)

	if len(early) < 10 {
		t.Fatalf("walker reached only %d maps; it is not seeing the home's state", len(early))
	}
	for path, n := range late {
		if n != early[path] {
			t.Errorf("%s: %d entries after 10 000 cycles, %d after 1 000", path, n, early[path])
		}
	}
}
