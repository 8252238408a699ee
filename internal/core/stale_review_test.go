package core

import (
	"bytes"
	"testing"

	"cloud4home/internal/kv"
	"cloud4home/internal/vclock"
)

// Review repro: a node holding a stale copy of an object (its metadata
// since overwritten from another node) serves that stale copy via the
// replica short-circuit in fetchToDom0.
func TestReviewStaleLocalCopyServed(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	var home *Home
	var n1, n2, n3, n4 *Node
	v.Run(func() {
		home = NewHome(v, HomeOptions{Seed: 31, KV: kv.Options{CacheEnabled: true}, Config: Config{ErasureK: 1, ErasureN: 1}})
		add := func(addr string, spec NodeConfig) *Node {
			spec.Addr = addr
			n, err := home.AddNode(spec)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		n1 = add("n1:9000", NodeConfig{Machine: desktopSpec(), MandatoryBytes: 8 * GB, VoluntaryBytes: 1 * GB})
		n2 = add("n2:9000", NodeConfig{Machine: desktopSpec(), MandatoryBytes: 8 * GB, VoluntaryBytes: 2 * GB})
		n3 = add("n3:9000", NodeConfig{Machine: desktopSpec(), MandatoryBytes: 8 * GB, VoluntaryBytes: 3 * GB})
		n4 = add("n4:9000", NodeConfig{Machine: desktopSpec(), MandatoryBytes: 8 * GB, VoluntaryBytes: 8 * GB})
		home.PublishAll()
	})
	if t.Failed() {
		t.FailNow()
	}
	v.Run(func() {
		s1, err := n1.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		v1 := []byte("version one")
		if _, err := s1.StoreObjectData("x.bin", "bin", v1, StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		// Same name stored again from another node: metadata is
		// kv.Overwrite, so this is a supported overwrite that relocates.
		s3, err := n3.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		v2 := []byte("version two!")
		if _, err := s3.StoreObjectData("x.bin", "bin", v2, StoreOptions{Blocking: true}); err != nil {
			t.Fatal(err)
		}
		meta, _, err := n2.getMeta("x.bin")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("meta after overwrite: location=%q replicas=%v", meta.Location, meta.Replicas)
		t.Logf("n1 still has copy: %v", n1.store.Has("x.bin"))

		res, err := s1.FetchObject("x.bin")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n1 fetch source=%q data=%q", res.Source, res.Data)
		if !bytes.Equal(res.Data, v2) {
			t.Fatalf("stale read: got %q, want %q", res.Data, v2)
		}
		_ = n4
	})
}
