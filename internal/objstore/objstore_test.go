package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cloud4home/internal/ids"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewMem(1<<20, 1<<20)
	data := []byte("surveillance frame bytes")
	obj := Object{Name: "cam0/frame-1.jpg", Type: "image/jpeg", Tags: []string{"camera0"}}
	if err := s.Put(Mandatory, obj, data); err != nil {
		t.Fatal(err)
	}
	meta, got, err := s.Get("cam0/frame-1.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if meta.Size != int64(len(data)) {
		t.Fatalf("meta.Size = %d, want %d", meta.Size, len(data))
	}
	if meta.Type != "image/jpeg" || len(meta.Tags) != 1 {
		t.Fatalf("metadata lost: %+v", meta)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewMem(100, 100)
	if _, _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if _, _, err := s.Stat("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat: got %v, want ErrNotFound", err)
	}
	if err := s.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete: got %v, want ErrNotFound", err)
	}
}

func TestDuplicateRejected(t *testing.T) {
	s := NewMem(1000, 1000)
	obj := Object{Name: "dup"}
	if err := s.Put(Mandatory, obj, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Voluntary, obj, []byte("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v, want ErrExists", err)
	}
}

func TestBinCapacityEnforced(t *testing.T) {
	s := NewMem(100, 50)
	if err := s.Put(Mandatory, Object{Name: "a"}, make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	// 80/100 used: a 30-byte object no longer fits the mandatory bin.
	err := s.Put(Mandatory, Object{Name: "b"}, make([]byte, 30))
	if !errors.Is(err, ErrBinFull) {
		t.Fatalf("got %v, want ErrBinFull", err)
	}
	// But it fits the voluntary bin.
	if err := s.Put(Voluntary, Object{Name: "b"}, make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	mu, _ := s.Usage(Mandatory)
	vu, _ := s.Usage(Voluntary)
	if mu.Used != 80 || vu.Used != 30 {
		t.Fatalf("usage = %d/%d, want 80/30", mu.Used, vu.Used)
	}
	if mu.Free() != 20 || vu.Free() != 20 {
		t.Fatalf("free = %d/%d, want 20/20", mu.Free(), vu.Free())
	}
}

func TestDeleteReclaimsSpace(t *testing.T) {
	s := NewMem(100, 0)
	if err := s.Put(Mandatory, Object{Name: "x"}, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Mandatory, Object{Name: "y"}, []byte("z")); !errors.Is(err, ErrBinFull) {
		t.Fatalf("bin should be full, got %v", err)
	}
	if err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	u, _ := s.Usage(Mandatory)
	if u.Used != 0 || u.Objects != 0 {
		t.Fatalf("usage after delete = %+v", u)
	}
	if err := s.Put(Mandatory, Object{Name: "y"}, []byte("z")); err != nil {
		t.Fatalf("space not reclaimed: %v", err)
	}
}

func TestSparseObjects(t *testing.T) {
	s := NewMem(1<<30, 0)
	// A 100 MB synthetic object: size accounted, no bytes materialised.
	obj := Object{Name: "big.avi", Size: 100 << 20}
	if err := s.Put(Mandatory, obj, nil); err != nil {
		t.Fatal(err)
	}
	meta, data, err := s.Get("big.avi")
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatal("sparse object returned bytes")
	}
	if meta.Size != 100<<20 {
		t.Fatalf("sparse size = %d", meta.Size)
	}
	u, _ := s.Usage(Mandatory)
	if u.Used != 100<<20 {
		t.Fatalf("sparse object not accounted: used=%d", u.Used)
	}
}

func TestNegativeSparseSizeRejected(t *testing.T) {
	s := NewMem(100, 100)
	if err := s.Put(Mandatory, Object{Name: "neg", Size: -5}, nil); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	s := NewMem(100, 100)
	if err := s.Put(Mandatory, Object{}, []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestUnknownBin(t *testing.T) {
	s := NewMem(100, 100)
	if err := s.Put(Bin(9), Object{Name: "x"}, nil); !errors.Is(err, ErrBadBin) {
		t.Fatalf("got %v, want ErrBadBin", err)
	}
	if _, err := s.Usage(Bin(9)); !errors.Is(err, ErrBadBin) {
		t.Fatalf("Usage: got %v, want ErrBadBin", err)
	}
}

func TestList(t *testing.T) {
	s := NewMem(1000, 1000)
	names := map[string]bool{"a": true, "b": true, "c": true}
	for n := range names {
		if err := s.Put(Mandatory, Object{Name: n}, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	if len(got) != 3 {
		t.Fatalf("List returned %d names", len(got))
	}
	for _, n := range got {
		if !names[n] {
			t.Fatalf("unexpected name %q", n)
		}
	}
}

func TestDiskBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("on-disk object payload")
	if err := s.Put(Voluntary, Object{Name: "path/with/slashes.bin", Type: "bin"}, data); err != nil {
		t.Fatal(err)
	}
	_, got, err := s.Get("path/with/slashes.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("disk round trip corrupted payload")
	}
	if err := s.Delete("path/with/slashes.bin"); err != nil {
		t.Fatal(err)
	}
	if s.Has("path/with/slashes.bin") {
		t.Fatal("object still present after delete")
	}
}

func TestDiskSparseFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Mandatory, Object{Name: "sparse.dat", Size: 1 << 20}, nil); err != nil {
		t.Fatal(err)
	}
	_, data, err := s.Get("sparse.dat")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != 1<<20 {
		t.Fatalf("sparse file read %d bytes, want %d", len(data), 1<<20)
	}
}

func TestQuickCapacityInvariant(t *testing.T) {
	// Property: used never exceeds capacity and equals the sum of live
	// object sizes, under arbitrary put/delete sequences.
	f := func(ops []uint16) bool {
		s := NewMem(10_000, 10_000)
		live := map[string]int64{}
		for i, op := range ops {
			name := fmt.Sprintf("o%d", op%32)
			size := int64(op % 700)
			if op%3 == 0 {
				if err := s.Delete(name); err == nil {
					delete(live, name)
				}
				continue
			}
			bin := Mandatory
			if op%2 == 0 {
				bin = Voluntary
			}
			if err := s.Put(bin, Object{Name: name, Size: size}, nil); err == nil {
				live[name] = size
			}
			_ = i
		}
		var want int64
		for _, sz := range live {
			want += sz
		}
		mu, _ := s.Usage(Mandatory)
		vu, _ := s.Usage(Voluntary)
		return mu.Used+vu.Used == want && mu.Used <= mu.Capacity && vu.Used <= vu.Capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReplaceOverwritesInPlace(t *testing.T) {
	s := NewMem(100, 100)
	if err := s.Put(Mandatory, Object{Name: "r", Type: "old"}, []byte("old-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(Object{Name: "r", Type: "new"}, []byte("new")); err != nil {
		t.Fatal(err)
	}
	meta, data, err := s.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("new")) || meta.Type != "new" {
		t.Fatalf("got %q/%q after replace", data, meta.Type)
	}
	u, _ := s.Usage(Mandatory)
	if u.Used != 3 || u.Objects != 1 {
		t.Fatalf("usage after replace = %+v, want Used=3 Objects=1", u)
	}
}

func TestReplaceMissingObject(t *testing.T) {
	s := NewMem(100, 100)
	if err := s.Replace(Object{Name: "ghost"}, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

// TestReplaceChargesSizeDelta: growing an object must fit Used − old +
// new within the bin, and a rejected replace leaves the old object (and
// the accounting) untouched.
func TestReplaceChargesSizeDelta(t *testing.T) {
	s := NewMem(100, 0)
	if err := s.Put(Mandatory, Object{Name: "grow"}, make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Mandatory, Object{Name: "other"}, make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	// 60→80 needs 20 more; only 10 free. Must fail and keep the old bytes.
	if err := s.Replace(Object{Name: "grow"}, make([]byte, 80)); !errors.Is(err, ErrBinFull) {
		t.Fatalf("got %v, want ErrBinFull", err)
	}
	if meta, data, err := s.Get("grow"); err != nil || meta.Size != 60 || len(data) != 60 {
		t.Fatalf("old object damaged by failed replace: meta=%+v err=%v", meta, err)
	}
	u, _ := s.Usage(Mandatory)
	if u.Used != 90 {
		t.Fatalf("Used = %d after failed replace, want 90", u.Used)
	}
	// 60→70 fits exactly (delta 10): in-place growth may use the space the
	// object itself releases, which delete-then-put could not guarantee.
	if err := s.Replace(Object{Name: "grow"}, make([]byte, 70)); err != nil {
		t.Fatal(err)
	}
	u, _ = s.Usage(Mandatory)
	if u.Used != 100 {
		t.Fatalf("Used = %d, want 100", u.Used)
	}
}

func TestReplaceOnDiskSurvivesAndIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Mandatory, Object{Name: "d"}, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(Object{Name: "d"}, []byte("after")); err != nil {
		t.Fatal(err)
	}
	_, data, err := s.Get("d")
	if err != nil || !bytes.Equal(data, []byte("after")) {
		t.Fatalf("disk replace: got %q, %v", data, err)
	}
	// Sparse replacement truncates to the new size.
	if err := s.Replace(Object{Name: "d", Size: 9}, nil); err != nil {
		t.Fatal(err)
	}
	meta, _, err := s.Stat("d")
	if err != nil || meta.Size != 9 {
		t.Fatalf("sparse disk replace: meta=%+v err=%v", meta, err)
	}
}

// TestNamesSharingADHTKeyKeepTheirOwnPayloads: the 40-bit DHT key is a
// routing key, not an identity — "obj/26629" and "obj/1641634" share one.
// Each must still read back its own bytes, and replacing or deleting one
// must leave the other untouched, in memory and on disk.
func TestNamesSharingADHTKeyKeepTheirOwnPayloads(t *testing.T) {
	const a, b = "obj/26629", "obj/1641634"
	if ids.HashString(a) != ids.HashString(b) {
		t.Fatalf("fixture: %q and %q no longer share a DHT key (%s, %s)",
			a, b, ids.HashString(a), ids.HashString(b))
	}
	disk, err := NewDisk(t.TempDir(), 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Store
	}{{"mem", NewMem(1<<20, 1<<20)}, {"disk", disk}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			want := func(name, payload string) {
				t.Helper()
				if _, got, err := s.Get(name); err != nil || string(got) != payload {
					t.Fatalf("Get(%q) = %q, %v; want %q", name, got, err, payload)
				}
				if _, got, err := s.GetRef(name); err != nil || string(got) != payload {
					t.Fatalf("GetRef(%q) = %q, %v; want %q", name, got, err, payload)
				}
			}
			if err := s.Put(Mandatory, Object{Name: a}, []byte("bytes of a")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(Voluntary, Object{Name: b}, []byte("bytes of b")); err != nil {
				t.Fatal(err)
			}
			want(a, "bytes of a")
			want(b, "bytes of b")
			if err := s.Replace(Object{Name: b}, []byte("new b")); err != nil {
				t.Fatal(err)
			}
			want(a, "bytes of a")
			want(b, "new b")
			if err := s.Delete(b); err != nil {
				t.Fatal(err)
			}
			want(a, "bytes of a")
			if s.Has(b) {
				t.Fatalf("%q still present after delete", b)
			}
		})
	}
}

// TestHotPathAllocations pins what the store allocates per operation: a
// borrowed read allocates nothing, and a sparse Put+Delete only what the
// map needs.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := NewMem(1<<40, 1<<40)
	if err := s.Put(Mandatory, Object{Name: "cam0/frame-1.jpg"}, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := s.GetRef("cam0/frame-1.jpg"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("GetRef allocates %.1f objects per call, want 0", avg)
	}
	obj := Object{Name: "trace/obj-17", Size: 4 << 20}
	if avg := testing.AllocsPerRun(200, func() {
		if err := s.Put(Voluntary, obj, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(obj.Name); err != nil {
			t.Fatal(err)
		}
	}); avg != sparseCycleAllocs {
		t.Errorf("sparse Put+Delete allocates %.1f objects per cycle, want %d", avg, sparseCycleAllocs)
	}
}

// sparseCycleAllocs is a sparse Put+Delete's allocation count: an entry
// (metadata, bin, payload slice) is larger than the 128 bytes a map keeps
// inline, so inserting one boxes it.
const sparseCycleAllocs = 1

// BenchmarkSparseCycle is the object store's profiling entry point: the
// sparse Put, GetRef and Delete every simulated store and fetch makes.
func BenchmarkSparseCycle(b *testing.B) {
	s := NewMem(1<<40, 1<<40)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("trace/obj-%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		if err := s.Put(Voluntary, Object{Name: name, Size: 1 << 20}, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.GetRef(name); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(name); err != nil {
			b.Fatal(err)
		}
	}
}
