package daemon

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitForGoroutines returns once n goroutines have a stack dump holding
// every one of marks.
func waitForGoroutines(t *testing.T, n int, marks ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		found := 0
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			all := true
			for _, m := range marks {
				all = all && bytes.Contains(g, []byte(m))
			}
			if all {
				found++
			}
		}
		if found >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines at %q after 5 s, want %d", found, marks, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForTurnWaiters returns once n ops are blocked waiting for a turn.
func waitForTurnWaiters(t *testing.T, n int) {
	t.Helper()
	waitForGoroutines(t, n, "[chan send", "daemon.(*Server).take(")
}

// storeN stores n payloads on node under prefix, one after the other.
func storeN(c *Client, node, prefix string, n int, payload []byte) error {
	for i := 0; i < n; i++ {
		if _, err := c.Store(fmt.Sprintf("%s/%d.bin", prefix, i), "b", payload, 0, node); err != nil {
			return err
		}
	}
	return nil
}

func TestOpsOnDifferentNodesOverlap(t *testing.T) {
	_, addr := startServer(t)
	conns := []*Client{dial(t, addr), dial(t, addr)}
	payload := []byte("x")
	// Open both sessions first: the shared-memory handshake is not a store.
	for i, c := range conns {
		if err := storeN(c, testNodes[i], fmt.Sprintf("warm%d", i), 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	// A store's own latency depends on its node (where its metadata lives),
	// so "one connection alone" is the slower node's.
	const n = 8
	var alone time.Duration
	for i, c := range conns {
		t0 := time.Now()
		if err := storeN(c, testNodes[i], fmt.Sprintf("alone%d", i), n, payload); err != nil {
			t.Fatal(err)
		}
		alone = max(alone, time.Since(t0))
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			errs[i] = storeN(c, testNodes[i], fmt.Sprintf("both%d", i), n, payload)
		}(i, c)
	}
	wg.Wait()
	both := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if both >= alone*3/2 {
		t.Fatalf("two connections on two nodes took %v, one alone %v: want < 1.5x", both, alone)
	}
}

func TestSameNodeOpsServedFIFO(t *testing.T) {
	_, addr := startServer(t)
	const n = 30
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		cl := dial(t, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := cl.Store(fmt.Sprintf("fifo/%d/%d.bin", c, i), "b", []byte("x"), 0, testNodes[0]); err != nil {
					errs[c] = err
					return
				}
				mu.Lock()
				order = append(order, c)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	repeats := 0
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			repeats++
		}
	}
	// Each connection sends its next store as soon as it has its reply, so
	// only the first and last ops may complete beside one of their own.
	if repeats > 2 {
		t.Fatalf("%d same-connection repeats in %d completions, want <= 2: %v", repeats, len(order)-1, order)
	}
}

func TestStatsAndOtherNodesNotBehindATurn(t *testing.T) {
	srv, addr := startServer(t)
	ns, err := srv.take(testNodes[0])
	if err != nil {
		t.Fatal(err)
	}
	held := true
	defer func() {
		if held {
			ns.release()
		}
	}()

	// A store on the held node waits for its turn.
	blocked := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := blocked.Store("held/a.bin", "b", []byte("a"), 0, testNodes[0])
		done <- err
	}()
	waitForTurnWaiters(t, 1)

	// The other node, Stats and ls are served meanwhile.
	other, stats := dial(t, addr), dial(t, addr)
	served := make(chan error, 1)
	go func() {
		if _, err := other.Store("free/b.bin", "b", []byte("b"), 0, testNodes[1]); err != nil {
			served <- err
			return
		}
		if _, err := stats.Stats(); err != nil {
			served <- err
			return
		}
		_, _, err := stats.List()
		served <- err
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("store on the other node, Stats and ls still waiting after 5 s")
	}
	select {
	case err := <-done:
		t.Fatalf("store on the held node returned before its turn: %v", err)
	default:
	}

	held = false
	ns.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCloseDropsIdleClient(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Stats(); err != nil { // the connection is being served
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1 s with an idle client")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("a closed server answered")
	}
}

func TestCloseLetsInFlightOpReply(t *testing.T) {
	srv, addr := startServer(t)
	ns, err := srv.take(testNodes[0])
	if err != nil {
		t.Fatal(err)
	}
	held := true
	defer func() {
		if held {
			ns.release()
		}
	}()
	c := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Store("inflight.bin", "b", []byte("x"), 0, testNodes[0])
		done <- err
	}()
	waitForTurnWaiters(t, 1)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Close has set the read deadlines once it waits for the connections.
	waitForGoroutines(t, 1, "sync.(*WaitGroup).Wait", "daemon.(*Server).Close(")
	held = false
	ns.release()
	if err := <-done; err != nil {
		t.Fatalf("op in flight at Close: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1 s after the op in flight replied")
	}
}
