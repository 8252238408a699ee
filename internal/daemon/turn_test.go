package daemon

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/core"
	"cloud4home/internal/vclock"
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

// waitForQueuedOps returns once n connections wait for a resident to
// serve their op.
func waitForQueuedOps(t *testing.T, n int) {
	t.Helper()
	waitForGoroutines(t, n, "[chan receive", "daemon.(*caller).call(")
}

// holdNode has the resident of the named node serve a request that parks
// it until release, so the node's ops queue behind it as behind a long
// op. release returns once the request is back; calling it again does
// nothing.
func holdNode(srv *Server, node string) (release func()) {
	gate := vclock.NewInbox[struct{}](srv.home.Clock())
	holding := make(chan struct{})
	c := newCaller()
	c.req.atNode, c.req.node = true, node
	c.req.do = func(*Server, *core.Session, *request) {
		close(holding)
		gate.Receive()
	}
	srv.desk.Deliver(&c.req)
	<-holding
	var once sync.Once
	return func() {
		once.Do(func() {
			gate.Deliver(struct{}{})
			<-c.done
		})
	}
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
	release := holdNode(srv, testNodes[0])
	defer release()

	// A store on the held node waits for its turn.
	blocked := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := blocked.Store("held/a.bin", "b", []byte("a"), 0, testNodes[0])
		done <- err
	}()
	waitForQueuedOps(t, 1)

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

	release()
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
	release := holdNode(srv, testNodes[0])
	defer release()
	c := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Store("inflight.bin", "b", []byte("x"), 0, testNodes[0])
		done <- err
	}()
	waitForQueuedOps(t, 1)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Close has set the read deadlines once it waits for the connections.
	waitForGoroutines(t, 1, "sync.(*WaitGroup).Wait", "daemon.(*Server).Close(")
	release()
	if err := <-done; err != nil {
		t.Fatalf("op in flight at Close: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1 s after the op in flight replied")
	}
}

// TestUnreadReplyHoldsNoTurn: a client that fetches a large object and
// never reads the reply stalls its own connection, not its node. The
// reply is written after the fetch gives its turn back, so a store on the
// same node is served while that write is blocked.
func TestUnreadReplyHoldsNoTurn(t *testing.T) {
	_, addr := startServer(t)
	// Larger than what the kernel buffers between the two ends of a
	// loopback connection, so the reply's write blocks.
	const size = 16 << 20
	c := dial(t, addr)
	if _, err := c.Store("big.bin", "b", make([]byte, size), 0, testNodes[0]); err != nil {
		t.Fatal(err)
	}
	stalled := rawConn(t, addr)
	if tcp, ok := stalled.(*net.TCPConn); ok {
		if err := tcp.SetReadBuffer(4 << 10); err != nil {
			t.Fatal(err)
		}
	}
	req := packet(t, command.TypeFetch, string(appendFetchReq(nil, fetchReq{Name: "big.bin", Node: testNodes[0]})))
	if _, err := stalled.Write(req); err != nil {
		t.Fatal(err)
	}
	// The fetch has run once its reply's write is blocked.
	waitForGoroutines(t, 1, "daemon.(*wire).send(")

	done := make(chan error, 1)
	go func() {
		_, err := c.Store("small.bin", "b", []byte("x"), 0, testNodes[0])
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a store on the node was still waiting 5 s behind a fetch whose reply nobody reads")
	}
}

// TestCloseDropsBufferedRequest: Close ends a connection at its next
// request even when that request already sits in the connection's read
// buffer, where no read deadline reaches it.
func TestCloseDropsBufferedRequest(t *testing.T) {
	srv, addr := startServer(t)
	release := holdNode(srv, testNodes[0])
	defer release()
	conn := rawConn(t, addr)
	// Two stores in one write: the first waits for the held turn, the
	// second is read into the buffer with it.
	var msg []byte
	for _, name := range []string{"first.bin", "second.bin"} {
		msg = append(msg, packet(t, command.TypeStore, string(appendStoreReq(nil, storeReq{Name: name, Size: 1, Node: testNodes[0]})))...)
	}
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	waitForQueuedOps(t, 1)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	waitForGoroutines(t, 1, "sync.(*WaitGroup).Wait", "daemon.(*Server).Close(")
	release()

	resp, err := command.Read(conn)
	if err != nil || resp.Type != command.TypeStore {
		t.Fatalf("the store in flight at Close: %v, %v", resp, err)
	}
	if resp, err := command.Read(conn); err == nil {
		t.Fatalf("the buffered store was served after Close: %s %s", resp.Type, resp.Data)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1 s after the op in flight replied")
	}
}

// TestCloseWithUnreadReplyReturns: a peer that asks for a large object
// and never reads the reply holds Close for at most closeGrace, the write
// deadline Close gives every open connection.
func TestCloseWithUnreadReplyReturns(t *testing.T) {
	srv, addr := startServer(t)
	const size = 16 << 20 // more than a loopback connection buffers
	c := dial(t, addr)
	if _, err := c.Store("big.bin", "b", make([]byte, size), 0, testNodes[0]); err != nil {
		t.Fatal(err)
	}
	stalled := rawConn(t, addr)
	if tcp, ok := stalled.(*net.TCPConn); ok {
		if err := tcp.SetReadBuffer(4 << 10); err != nil {
			t.Fatal(err)
		}
	}
	req := packet(t, command.TypeFetch, string(appendFetchReq(nil, fetchReq{Name: "big.bin", Node: testNodes[0]})))
	if _, err := stalled.Write(req); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, 1, "daemon.(*wire).send(")

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(closeGrace + 3*time.Second):
		t.Fatalf("Close still blocked %v after it began, behind a reply nobody reads", closeGrace+3*time.Second)
	}
}

// TestStatsAndListWhileOpsRun: Stats and ls read the home on the clock
// while stores and fetches run on two nodes. A Stats reply counts every
// store acknowledged before it was asked for, and an ls lists every name
// acknowledged before it was asked for.
func TestStatsAndListWhileOpsRun(t *testing.T) {
	_, addr := startServer(t)
	var (
		mu    sync.Mutex
		acked []string // names whose store was acknowledged, in order
	)
	ackedSoFar := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return acked[:len(acked):len(acked)]
	}
	const perNode = 15
	errs := make(chan error, len(testNodes))
	var wg sync.WaitGroup
	for i, node := range testNodes {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				name := fmt.Sprintf("n%d/%d.bin", i, j)
				if _, err := c.Store(name, "b", []byte(name), 0, node); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				acked = append(acked, name)
				mu.Unlock()
				if _, err := c.Fetch(name, node); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	reader := dial(t, addr)
	for done := false; !done; {
		select {
		case <-finished:
			done = true // one more round after the last ack
		default:
		}
		before := ackedSoFar()
		st, err := reader.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var stores int64
		for _, n := range st {
			stores += n.Stores
		}
		if stores < int64(len(before)) {
			t.Fatalf("Stats counts %d stores, %d were acknowledged before it was asked for", stores, len(before))
		}
		before = ackedSoFar()
		_, objects, err := reader.List()
		if err != nil {
			t.Fatal(err)
		}
		listed := make(map[string]bool, len(objects))
		for _, o := range objects {
			listed[o] = true
		}
		for _, name := range before {
			if !listed[name] {
				t.Fatalf("ls lacks %s, acknowledged before it was asked for", name)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(ackedSoFar()); got != perNode*len(testNodes) {
		t.Fatalf("%d stores acknowledged, want %d", got, perNode*len(testNodes))
	}
}
