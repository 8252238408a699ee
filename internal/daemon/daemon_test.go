package daemon

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"cloud4home/internal/core"
	"cloud4home/internal/machine"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

// testNodes are the home nodes startServer builds.
var testNodes = []string{"dev-a:9000", "dev-b:9000"}

// startServer builds a small home cloud on a paced clock and serves it
// on an ephemeral port.
func startServer(t *testing.T) (*Server, string) {
	return startServerWith(t, core.Config{})
}

// startServerWith is startServer with the home's modeled behaviour set.
func startServerWith(t *testing.T, cfg core.Config) (*Server, string) {
	t.Helper()
	clock := vclock.NewPaced()
	quit, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		clock.Run(func() { clock.Block(func() { <-quit }) })
	}()
	// Cleanups run last first: this one after the server's below.
	t.Cleanup(func() {
		close(quit)
		<-stopped
	})
	var home *core.Home
	var err error
	setUp := make(chan struct{})
	clock.Post(func() {
		defer close(setUp)
		home = core.NewHome(clock, core.HomeOptions{Seed: 1, Config: cfg})
		spec := machine.Spec{Name: "dev", Cores: 2, GHz: 2.0, MemMB: 1024, Battery: 1}
		for _, addr := range testNodes {
			var n *core.Node
			if n, err = home.AddNode(core.NodeConfig{
				Addr: addr, Machine: spec,
				MandatoryBytes: 1 << 30, VoluntaryBytes: 1 << 30,
			}); err != nil {
				return
			}
			if err = n.DeployService(services.FaceDetect(), "performance"); err != nil {
				return
			}
			if err = n.Monitor().PublishOnce(); err != nil {
				return
			}
		}
	})
	<-setUp
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(home)
	done := make(chan error, 1)
	go func() { done <- srv.Serve("127.0.0.1:0") }()
	// Wait for the listener to bind.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, srv.Addr()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStoreFetchOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	payload := bytes.Repeat([]byte("cloud4home"), 1000)
	sr, err := c.Store("docs/readme.txt", "text", payload, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Location == "" {
		t.Fatal("no placement location reported")
	}
	fr, err := c.Fetch("docs/readme.txt", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Data, payload) {
		t.Fatal("payload corrupted over TCP")
	}
	if fr.Size != int64(len(payload)) {
		t.Fatalf("size = %d", fr.Size)
	}
}

func TestSparseStoreFetch(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Store("sparse.bin", "blob", nil, 4096, ""); err != nil {
		t.Fatal(err)
	}
	fr, err := c.Fetch("sparse.bin", "")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data != nil {
		t.Fatal("sparse object returned payload")
	}
	if fr.Size != 4096 {
		t.Fatalf("size = %d", fr.Size)
	}
}

func TestFetchMissingReportsRemoteError(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, err := c.Fetch("nothing-here", "")
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	// The connection survives an error and serves the next request.
	if _, err := c.Store("after-error", "b", []byte("x"), 0, ""); err != nil {
		t.Fatalf("connection dead after server error: %v", err)
	}
}

func TestProcessOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	img := make([]byte, 8192)
	for i := range img {
		img[i] = byte(i % 200) // structured: detectable regions
	}
	if _, err := c.Store("cam/frame.jpg", "image", img, 0, ""); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Process("cam/frame.jpg", "fdet", services.FaceDetectID, "")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Detections == 0 {
		t.Fatal("structured image produced no detections over TCP")
	}
	if pr.Target == "" || pr.Mode == "" {
		t.Fatalf("incomplete result: %+v", pr)
	}
}

func TestList(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Store("a.bin", "b", []byte("1"), 0, ""); err != nil {
		t.Fatal(err)
	}
	nodes, objects, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
	found := false
	for _, o := range objects {
		if o == "a.bin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("a.bin not listed in %v", objects)
	}
}

func TestExplicitNodeSelection(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Store("pinned.bin", "b", []byte("x"), 0, "dev-b:9000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store("bad-node.bin", "b", []byte("x"), 0, "nope:1"); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown node accepted: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			node := testNodes[i%len(testNodes)]
			name := string(rune('a'+i)) + "/conc.bin"
			if _, err := c.Store(name, "b", []byte{byte(i)}, 0, node); err != nil {
				errs <- err
				return
			}
			fr, err := c.Fetch(name, node)
			if err != nil {
				errs <- err
				return
			}
			if len(fr.Data) != 1 || fr.Data[0] != byte(i) {
				errs <- errors.New("wrong payload under concurrency")
				return
			}
			if _, err := c.Stats(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStatsOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Store("stats/a.bin", "b", []byte("123"), 0, "dev-a:9000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch("stats/a.bin", "dev-a:9000"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d nodes, want 2", len(stats))
	}
	var a NodeStats
	for _, s := range stats {
		if s.Addr == "dev-a:9000" {
			a = s
		}
	}
	if a.Stores != 1 || a.Fetches != 1 || a.BytesStored != 3 {
		t.Fatalf("dev-a stats = %+v", a)
	}
}

// TestStatsCarryCacheCounters: with the dom0 cache and fetch coalescing
// on, a second fetch of a remote object is a cache hit, and the hit
// reaches the client through the Stats RPC.
func TestStatsCarryCacheCounters(t *testing.T) {
	_, addr := startServerWith(t, core.Config{CacheBytes: 1 << 20, CoalesceFetch: true})
	c := dial(t, addr)
	payload := bytes.Repeat([]byte("c"), 4096)
	if _, err := c.Store("cached.bin", "b", payload, 0, testNodes[0]); err != nil {
		t.Fatal(err)
	}
	for _, node := range testNodes {
		for i := 0; i < 2; i++ {
			fr, err := c.Fetch("cached.bin", node)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fr.Data, payload) {
				t.Fatalf("fetch %d over %s: payload differs", i, node)
			}
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int64
	for _, s := range stats {
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("cache hits %d, misses %d over Stats, want both > 0: %+v", hits, misses, stats)
	}
}
