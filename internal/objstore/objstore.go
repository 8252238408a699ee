// Package objstore is the per-node local object store beneath VStore++.
// As in the paper, it "uses a standard file system to represent objects,
// using a one-to-one mapping of objects to files" (§III), and it divides
// each node's space into a mandatory bin — "the set of resources
// available for applications hosted on the same node" — and a voluntary
// bin contributed "to the aggregate storage pool available to any node in
// the VStore++ home cloud".
//
// Two kinds of store are provided: an in-memory store for simulations,
// which keeps each payload beside its metadata under the object's name
// (and can hold sparse objects — metadata and size without materialised
// bytes, for multi-megabyte synthetic workloads), and a disk store that
// really maps objects to files, each named by the full SHA-256 digest of
// the object's name.
package objstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Bin selects which storage bin an object lands in.
type Bin int

// The two bins of §III.
const (
	Mandatory Bin = iota + 1
	Voluntary
)

// String renders the bin name.
func (b Bin) String() string {
	switch b {
	case Mandatory:
		return "mandatory"
	case Voluntary:
		return "voluntary"
	default:
		return fmt.Sprintf("Bin(%d)", int(b))
	}
}

// Errors returned by store operations.
var (
	ErrNotFound = errors.New("objstore: object not found")
	ErrExists   = errors.New("objstore: object already exists")
	ErrBinFull  = errors.New("objstore: bin full")
	ErrBadBin   = errors.New("objstore: unknown bin")
)

// Object is the mandatory metadata created by CreateObject (§III-B):
// name, type, and size, plus free-form tags as in the key-value store's
// value records.
type Object struct {
	Name string   `json:"name"`
	Type string   `json:"type"`
	Size int64    `json:"size"`
	Tags []string `json:"tags,omitempty"`
	// Owner is the creating principal ("" = unowned/open); see the
	// access-control extension in internal/core.
	Owner   string    `json:"owner,omitempty"`
	Created time.Time `json:"created"`
}

// Usage reports one bin's occupancy; the "file system watcher component"
// of §IV feeds these numbers into resource monitoring.
type Usage struct {
	Capacity int64
	Used     int64
	Objects  int
}

// Free returns the remaining capacity.
func (u Usage) Free() int64 { return u.Capacity - u.Used }

// entry is one stored object: its metadata, its bin and, in a memory
// store, its payload (nil when sparse). The payload is keyed by the
// object's name like the metadata, so one lookup serves both.
type entry struct {
	meta Object
	bin  Bin
	data []byte
}

// Store is one node's object store. It has no lock: the clock's turn is
// its one owner, and only the actor holding the turn calls it. A payload
// borrowed through GetRef may be read anywhere (a kernel's goroutine
// reads one), since the store never writes a payload in place.
type Store struct {
	disk *diskBackend // nil: payloads live in memory, in entry.data

	objects map[string]entry
	bins    map[Bin]*Usage
}

// NewMem returns an in-memory store with the given bin capacities in
// bytes.
func NewMem(mandatoryCap, voluntaryCap int64) *Store {
	return newStore(nil, mandatoryCap, voluntaryCap)
}

// NewDisk returns a disk-backed store rooted at dir, creating
// mandatory/ and voluntary/ subdirectories.
func NewDisk(dir string, mandatoryCap, voluntaryCap int64) (*Store, error) {
	for _, sub := range []string{"mandatory", "voluntary"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("objstore: create %s bin: %w", sub, err)
		}
	}
	return newStore(&diskBackend{dir: dir}, mandatoryCap, voluntaryCap), nil
}

func newStore(disk *diskBackend, mandatoryCap, voluntaryCap int64) *Store {
	return &Store{
		disk:    disk,
		objects: make(map[string]entry),
		bins: map[Bin]*Usage{
			Mandatory: {Capacity: mandatoryCap},
			Voluntary: {Capacity: voluntaryCap},
		},
	}
}

// Put stores an object in the given bin. data may be nil for a sparse
// object whose size is taken from meta.Size; otherwise meta.Size is
// overridden by len(data). Returns ErrBinFull when the bin cannot hold
// the object — the trigger for VStore++ to place it elsewhere.
func (s *Store) Put(bin Bin, meta Object, data []byte) error {
	if meta.Name == "" {
		return errors.New("objstore: object needs a name")
	}
	if data != nil {
		meta.Size = int64(len(data))
	}
	if meta.Size < 0 {
		return fmt.Errorf("objstore: negative size %d for %q", meta.Size, meta.Name)
	}
	u, ok := s.bins[bin]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadBin, int(bin))
	}
	if _, dup := s.objects[meta.Name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, meta.Name)
	}
	if u.Used+meta.Size > u.Capacity {
		return fmt.Errorf("%w: %s bin %d/%d bytes, object %q needs %d",
			ErrBinFull, bin, u.Used, u.Capacity, meta.Name, meta.Size)
	}
	e := entry{meta: meta, bin: bin}
	if s.disk != nil {
		if err := s.disk.put(meta.Name, data, meta.Size); err != nil {
			return fmt.Errorf("objstore: put %q: %w", meta.Name, err)
		}
	} else {
		e.data = clonePayload(data)
	}
	s.objects[meta.Name] = e
	u.Used += meta.Size
	u.Objects++
	return nil
}

// Replace atomically overwrites an existing object's payload and
// metadata in place, keeping its bin. data may be nil for a sparse
// object sized by meta.Size. The old object survives any failure: the
// capacity check accounts the size delta before bytes move, and the
// backend write is staged so a mid-write error leaves the original
// payload readable (the S3-overwrite contract cloudsim relies on —
// never delete-then-put).
func (s *Store) Replace(meta Object, data []byte) error {
	if meta.Name == "" {
		return errors.New("objstore: object needs a name")
	}
	if data != nil {
		meta.Size = int64(len(data))
	}
	if meta.Size < 0 {
		return fmt.Errorf("objstore: negative size %d for %q", meta.Size, meta.Name)
	}
	e, ok := s.objects[meta.Name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, meta.Name)
	}
	u := s.bins[e.bin]
	if u.Used-e.meta.Size+meta.Size > u.Capacity {
		return fmt.Errorf("%w: %s bin %d/%d bytes, replacing %q needs %d more",
			ErrBinFull, e.bin, u.Used, u.Capacity, meta.Name, meta.Size-e.meta.Size)
	}
	next := entry{meta: meta, bin: e.bin}
	if s.disk != nil {
		if err := s.disk.replace(meta.Name, data, meta.Size); err != nil {
			return fmt.Errorf("objstore: replace %q: %w", meta.Name, err)
		}
	} else {
		// A fresh slice, never a write into the old one: a borrow taken
		// by GetRef keeps the bytes it was taken with.
		next.data = clonePayload(data)
	}
	u.Used += meta.Size - e.meta.Size
	s.objects[meta.Name] = next
	return nil
}

// Get returns an object's metadata and payload. Sparse objects return a
// nil payload with the recorded size in the metadata.
func (s *Store) Get(name string) (Object, []byte, error) {
	e, ok := s.objects[name]
	if !ok {
		return Object{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if s.disk == nil {
		return e.meta, bytes.Clone(e.data), nil // nil (sparse) stays nil
	}
	data, err := s.disk.get(name)
	if err != nil {
		return Object{}, nil, fmt.Errorf("objstore: get %q: %w", name, err)
	}
	return e.meta, data, nil
}

// GetRef returns an object's metadata and a read-only borrow of its
// payload, without Get's copy. The borrow stays valid and unchanged for as
// long as it is held: a memory store never writes a payload in place (Put
// and Replace install a fresh slice, Delete only drops the store's
// reference) and a disk store returns an owned read. The caller must
// never write through it or hand it to code outside VStore++ — Get is for
// that. Sparse objects return nil.
func (s *Store) GetRef(name string) (Object, []byte, error) {
	e, ok := s.objects[name]
	if !ok {
		return Object{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if s.disk == nil {
		return e.meta, e.data, nil
	}
	data, err := s.disk.get(name)
	if err != nil {
		return Object{}, nil, fmt.Errorf("objstore: get %q: %w", name, err)
	}
	return e.meta, data, nil
}

// Stat returns an object's metadata and bin without touching the payload.
func (s *Store) Stat(name string) (Object, Bin, error) {
	e, ok := s.objects[name]
	if !ok {
		return Object{}, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.meta, e.bin, nil
}

// Has reports whether the store holds the object.
func (s *Store) Has(name string) bool {
	_, ok := s.objects[name]
	return ok
}

// Delete removes an object and reclaims its bin space.
func (s *Store) Delete(name string) error {
	e, ok := s.objects[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if s.disk != nil {
		if err := s.disk.delete(name); err != nil {
			return fmt.Errorf("objstore: delete %q: %w", name, err)
		}
	}
	delete(s.objects, name)
	u := s.bins[e.bin]
	u.Used -= e.meta.Size
	u.Objects--
	return nil
}

// Usage returns the current occupancy of a bin — the numbers the file
// system watcher publishes to the resource monitor.
func (s *Store) Usage(bin Bin) (Usage, error) {
	u, ok := s.bins[bin]
	if !ok {
		return Usage{}, fmt.Errorf("%w: %d", ErrBadBin, int(bin))
	}
	return *u, nil
}

// List returns the names of all stored objects in sorted order.
func (s *Store) List() []string {
	out := make([]string, 0, len(s.objects))
	for name := range s.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// clonePayload is the one copy a memory store makes of an application's
// payload on the way in; nil (sparse) stays nil.
func clonePayload(data []byte) []byte {
	if data == nil {
		return nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp
}

// fileKey names an object's file on disk: the hex of the SHA-256 digest of
// its name. The full digest keeps the object→file mapping one-to-one; the
// 40-bit DHT key (Object.Key) is a routing key, and distinct names share
// one.
func fileKey(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:])
}

// diskBackend maps objects one-to-one to files under dir, each named by
// fileKey. Sparse objects become sparse files via Truncate.
type diskBackend struct {
	dir string
}

func (d *diskBackend) path(name string) string {
	return filepath.Join(d.dir, fileKey(name)+".obj")
}

func (d *diskBackend) put(name string, data []byte, size int64) error {
	path := d.path(name)
	if data == nil {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f.Truncate(size); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return os.WriteFile(path, data, 0o644)
}

// get reads an owned copy of the payload; there is no resident copy to
// lend, so GetRef reads the same way.
func (d *diskBackend) get(name string) ([]byte, error) {
	data, err := os.ReadFile(d.path(name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	return data, nil
}

// replace stages the new payload in a temp file and renames it over the
// original, so a failed write leaves the old object file intact.
func (d *diskBackend) replace(name string, data []byte, size int64) error {
	path := d.path(name)
	tmp := path + ".tmp"
	if data == nil {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := f.Truncate(size); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
	} else if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func (d *diskBackend) delete(name string) error {
	err := os.Remove(d.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
