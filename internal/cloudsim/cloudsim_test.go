package cloudsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cloud4home/internal/machine"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/vclock"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func newCloud() (*Cloud, *vclock.Virtual, *netsim.Resource) {
	v := vclock.NewVirtual(epoch)
	net := netsim.New(v, 21)
	nic := netsim.NewResource(netsim.NodeNICBps)
	return New(v, net), v, nic
}

func TestStoreFetchRoundTrip(t *testing.T) {
	c, v, nic := newCloud()
	data := []byte("uploaded payload")
	var url string
	var err error
	v.Run(func() {
		url, _, err = c.StoreObject(nic, objstore.Object{Name: "backup/doc.txt"}, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if url != "s3://vstore/backup/doc.txt" {
		t.Fatalf("url = %q", url)
	}
	var meta objstore.Object
	var got []byte
	v.Run(func() {
		meta, got, _, err = c.FetchObject(nic, "backup/doc.txt")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || meta.Size != int64(len(data)) {
		t.Fatalf("fetch returned %q (size %d)", got, meta.Size)
	}
}

func TestStoreOverwrites(t *testing.T) {
	c, v, nic := newCloud()
	v.Run(func() {
		if _, _, err := c.StoreObject(nic, objstore.Object{Name: "k"}, []byte("v1")); err != nil {
			t.Error(err)
		}
		if _, _, err := c.StoreObject(nic, objstore.Object{Name: "k"}, []byte("v2")); err != nil {
			t.Error(err)
		}
		_, got, _, err := c.FetchObject(nic, "k")
		if err != nil {
			t.Error(err)
		}
		if string(got) != "v2" {
			t.Errorf("after re-put got %q, want v2 (S3 put replaces)", got)
		}
	})
}

func TestFetchMissing(t *testing.T) {
	c, v, nic := newCloud()
	v.Run(func() {
		if _, _, _, err := c.FetchObject(nic, "nope"); !errors.Is(err, objstore.ErrNotFound) {
			t.Errorf("got %v, want ErrNotFound", err)
		}
	})
}

func TestUploadSlowerThanDownload(t *testing.T) {
	// Fig 4's store/fetch asymmetry for remote accesses comes from the
	// 4.5 vs 6.5 Mbps up/down wireless split.
	c, v, nic := newCloud()
	size := int64(20 << 20)
	var up, down time.Duration
	v.Run(func() {
		var err error
		_, up, err = c.StoreObject(nic, objstore.Object{Name: "big", Size: size}, nil)
		if err != nil {
			t.Error(err)
		}
		_, _, down, err = c.FetchObject(nic, "big")
		if err != nil {
			t.Error(err)
		}
	})
	if up <= down {
		t.Fatalf("upload %v not slower than download %v", up, down)
	}
}

func TestRemoteMuchSlowerThanLAN(t *testing.T) {
	c, v, nic := newCloud()
	size := int64(10 << 20)
	var remote time.Duration
	v.Run(func() {
		var err error
		_, remote, err = c.StoreObject(nic, objstore.Object{Name: "x", Size: size}, nil)
		if err != nil {
			t.Error(err)
		}
	})
	// 10 MB on the LAN takes ≈1.4 s; the WAN upload must be far slower.
	if remote < 10*time.Second {
		t.Fatalf("10 MB WAN upload took only %v", remote)
	}
}

func TestSeedIsFree(t *testing.T) {
	c, v, nic := newCloud()
	if err := c.Seed(objstore.Object{Name: "public/training.db", Size: 130 << 20}, nil); err != nil {
		t.Fatal(err)
	}
	if !c.Has("public/training.db") {
		t.Fatal("seeded object missing")
	}
	// Seeding must not consume virtual time; a Stat costs one round trip.
	if !v.Now().Equal(epoch) {
		t.Fatal("Seed charged time")
	}
	v.Run(func() {
		meta, err := c.Stat(nic, "public/training.db")
		if err != nil {
			t.Error(err)
		}
		if meta.Size != 130<<20 {
			t.Errorf("stat size = %d", meta.Size)
		}
	})
	if !v.Now().After(epoch) {
		t.Fatal("Stat charged no time")
	}
}

func TestInstances(t *testing.T) {
	c, v, _ := newCloud()
	m, err := c.LaunchInstance("xl-1", ExtraLargeSpec("S3"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LaunchInstance("xl-1", ExtraLargeSpec("S3")); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	got, err := c.Instance("xl-1")
	if err != nil || got != m {
		t.Fatalf("Instance lookup: %v", err)
	}
	var d time.Duration
	v.Run(func() {
		d, err = m.Exec(machine.Task{CPUGHzSec: 14.5, Parallelism: 5})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second { // 14.5 GHz-sec / (5 × 2.9 GHz) = 1 s
		t.Fatalf("EC2 task took %v, want 1s", d)
	}
	if err := c.TerminateInstance("xl-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Instance("xl-1"); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("got %v, want ErrNoInstance", err)
	}
	if err := c.TerminateInstance("xl-1"); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("double terminate: got %v, want ErrNoInstance", err)
	}
}

func TestConcurrentDownloadsContend(t *testing.T) {
	// Fig 6's diminishing returns: concurrent remote fetches share the
	// WAN pipe, so two parallel 10 MB downloads take about as long as a
	// sequential pair.
	c, v, _ := newCloud()
	nicA := netsim.NewResource(netsim.NodeNICBps)
	nicB := netsim.NewResource(netsim.NodeNICBps)
	if err := c.Seed(objstore.Object{Name: "shared", Size: 10 << 20}, nil); err != nil {
		t.Fatal(err)
	}
	var solo time.Duration
	v.Run(func() {
		_, _, d, err := c.FetchObject(nicA, "shared")
		if err != nil {
			t.Error(err)
		}
		solo = d
	})
	start := v.Now()
	var wallEnd time.Time
	v.Run(func() {
		g := vclock.NewGroup(v)
		g.Go(func() {
			if _, _, _, err := c.FetchObject(nicA, "shared"); err != nil {
				t.Error(err)
			}
		})
		if _, _, _, err := c.FetchObject(nicB, "shared"); err != nil {
			t.Error(err)
		}
		g.Wait()
		wallEnd = v.Now()
	})
	wall := wallEnd.Sub(start)
	if wall < time.Duration(float64(solo)*1.5) {
		t.Fatalf("two concurrent downloads finished in %v; solo took %v — no WAN contention", wall, solo)
	}
}
