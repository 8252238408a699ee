package daemon

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloud4home/internal/core"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

// driver is an actor that hands requests to a server's residents on the
// clock, as a connection's goroutine does from off it: the seam that runs
// the daemon's dispatch on an unpaced clock, with no TCP.
type driver struct {
	srv     *Server
	replies *vclock.Inbox[*request]
	reply   func(*request) // sends to replies
}

// send files r with the body do at the home's resident; r comes back to
// d.replies once served.
func (d *driver) send(r *request, do func(*Server, *core.Session, *request)) {
	r.do, r.reply = do, d.reply
	d.srv.desk.Send(r)
}

// call sends r and waits for it to come back; nothing else is in flight.
func (d *driver) call(r *request, do func(*Server, *core.Session, *request)) *request {
	d.send(r, do)
	return d.replies.Receive()
}

// runUnpaced builds the test home on an unpaced clock and makes its
// server, then runs script as the root actor. Once script returns, the
// residents are stopped through the home's resident. It returns the
// virtual time the run took, set-up included.
func runUnpaced(t *testing.T, script func(d *driver)) time.Duration {
	t.Helper()
	epoch := time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := vclock.NewVirtual(epoch)
	var err error
	clock.Run(func() {
		var home *core.Home
		if home, err = newTestHome(clock, core.Config{}); err != nil {
			return
		}
		d := &driver{srv: NewServer(home), replies: vclock.NewInbox[*request](clock)}
		d.reply = d.replies.Send
		script(d)
		d.call(&request{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoResidents(t)
	return clock.Now().Sub(epoch)
}

// requireNoResidents fails unless every resident has returned: none is
// left parked in its inbox's Receive.
func requireNoResidents(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("daemon.(*Server).serveHome(")) || bytes.Contains(g, []byte("daemon.(*Server).serveNode(")) {
			t.Fatalf("a resident is still parked:\n%s", g)
		}
	}
}

// image is a structured payload, with regions fdet detects.
func image(n int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i % 200)
	}
	return img
}

// dispatchScript stores, fetches, processes and reads the home through
// its residents, and writes every reply to h: the reply packet's body, the
// frame's digest, the error and the instant it came back.
func dispatchScript(h hash.Hash) func(d *driver) {
	return func(d *driver) {
		v := d.srv.home.Clock()
		note := func(op string, r *request) {
			fmt.Fprintf(h, "%s %v out=%s frame=%x err=%v\n",
				op, v.Now().UnixNano(), r.out, sha256.Sum256(r.frame), r.err)
		}
		at := func(node string) *request { return &request{atNode: true, node: node} }
		r := at(testNodes[0])
		r.store, r.payload = storeReq{Name: "cam/a.jpg", Type: "image"}, image(16<<10)
		note("store", d.call(r, (*Server).storeBody))
		r = at(testNodes[1])
		r.store = storeReq{Name: "b.bin", Size: 4096}
		note("store-sparse", d.call(r, (*Server).storeBody))
		for _, node := range []string{testNodes[1], testNodes[0], ""} {
			r = at(node)
			r.fetch = fetchReq{Name: "cam/a.jpg"}
			note("fetch "+node, d.call(r, (*Server).fetchBody))
		}
		// Two requests at one node, at one instant.
		a, b := at(testNodes[1]), at(testNodes[1])
		a.fetch, b.fetch = fetchReq{Name: "b.bin"}, fetchReq{Name: "missing"}
		d.send(a, (*Server).fetchBody)
		d.send(b, (*Server).fetchBody)
		note("fetch b.bin", d.replies.Receive())
		note("fetch missing", d.replies.Receive())
		r = at(testNodes[0])
		r.process = processReq{Name: "cam/a.jpg", Service: "fdet", ID: services.FaceDetectID}
		note("process", d.call(r, (*Server).processBody))
		note("stats", d.call(&request{}, (*Server).statsBody))
		note("ls", d.call(&request{}, (*Server).listBody))
		note("unknown node", d.call(at("nope:1"), (*Server).fetchBody))
	}
}

// dispatchDigest pins the unpaced dispatch script's replies.
const dispatchDigest = "39f1a57a7c7f73141fa0563f2d5433156bb102a8942eab6aa9cd33505f46e491"

// TestUnpacedDispatchDeterministic: on an unpaced clock the daemon's
// dispatch is a function of its requests. Two runs of one script give the
// same replies (every totalMs, location and source, the payloads, the
// errors) at the same instants, and end at the same instant.
func TestUnpacedDispatchDeterministic(t *testing.T) {
	var digests [2]string
	var took [2]time.Duration
	for i := range digests {
		h := sha256.New()
		took[i] = runUnpaced(t, dispatchScript(h))
		fmt.Fprintf(h, "end %v\n", took[i])
		digests[i] = fmt.Sprintf("%x", h.Sum(nil))
	}
	if digests[0] != digests[1] {
		t.Fatalf("two runs differ: %s, %s", digests[0], digests[1])
	}
	if digests[0] != dispatchDigest {
		t.Fatalf("digest %s, want %s (ended at %v)", digests[0], dispatchDigest, took[0])
	}
}

// TestSameNodeServedInInstantSeqOrder: one node's requests are served in
// the clock's (instant, seq) order. Three actors each send a store to one
// node: the first spawned sends last, at a later instant; the other two
// send at one instant, in the order their sleeps were filed.
func TestSameNodeServedInInstantSeqOrder(t *testing.T) {
	var served []string
	runUnpaced(t, func(d *driver) {
		v := d.srv.home.Clock()
		g := vclock.NewGroup(v)
		for i, wait := range []time.Duration{2 * time.Millisecond, time.Millisecond, time.Millisecond} {
			g.Go(func() {
				v.Sleep(wait)
				r := &request{atNode: true, node: testNodes[0]}
				r.store = storeReq{Name: fmt.Sprintf("order/%d.bin", i), Size: 1}
				d.send(r, (*Server).storeBody)
			})
		}
		g.Wait()
		for range 3 {
			r := d.replies.Receive()
			if r.err != nil {
				t.Error(r.err)
			}
			served = append(served, r.store.Name)
		}
	})
	if got, want := strings.Join(served, " "), "order/1.bin order/2.bin order/0.bin"; got != want {
		t.Fatalf("served %s, want %s", got, want)
	}
}

// TestResidentFetchAllocations: a fetch served through the home's
// resident and its node's resident allocates exactly what a direct
// FetchObject on the node does, 2 (the payload's session-exit copy among
// them), and nothing of its own: no coroutine, closure or channel per op.
// A coroutine per op would add iter.Pull's own allocations.
func TestResidentFetchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 50
	var direct, resident float64
	runUnpaced(t, func(d *driver) {
		r := &request{atNode: true, node: testNodes[0]}
		r.store, r.payload = storeReq{Name: "alloc.bin"}, image(16<<10)
		if d.call(r, (*Server).storeBody).err != nil {
			t.Error(r.err)
			return
		}
		r.payload, r.fetch = nil, fetchReq{Name: "alloc.bin"}
		fetch := func() {
			if d.call(r, (*Server).fetchBody).err != nil || len(r.frame) != 16<<10 {
				t.Errorf("fetch: %v, %d bytes", r.err, len(r.frame))
			}
		}
		fetch() // the request's buffers grow once
		resident = testing.AllocsPerRun(runs, fetch)
		node, _ := d.srv.home.Node(testNodes[0])
		sess, err := node.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		direct = testing.AllocsPerRun(runs, func() {
			if _, err := sess.FetchObject("alloc.bin"); err != nil {
				t.Error(err)
			}
		})
	})
	if resident != direct || resident != 2 {
		t.Fatalf("a fetch through its resident: %v allocations, a direct FetchObject %v; want 2 and 2", resident, direct)
	}
}

// TestCloseEndsEveryResident: once the server is closed and the root has
// its end, every resident has returned; none is left parked in its
// inbox's Receive.
func TestCloseEndsEveryResident(t *testing.T) {
	t.Cleanup(func() { requireNoResidents(t) }) // after the server's cleanups
	_, addr := startServer(t)
	c := dial(t, addr)
	for _, node := range testNodes {
		if _, err := c.Store("end/"+node, "b", []byte("x"), 0, node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}
