// Package daemon exposes a VStore++ home cloud over real TCP sockets
// using the command-packet protocol of §IV. The c4hd binary hosts the
// home cloud (its devices run in-process on a virtual clock paced to the
// wall clock, as the paper's prototype ran every VM on one testbed); c4h
// is the CLI client. Control messages are command packets ("usually less
// than 50 bytes ... use TCP/IP sockets"); object payloads follow as
// length-prefixed frames, mirroring the prototype's separation of command
// and data channels.
//
// Each home node has a resident: an actor on the home's clock that opens
// the node's session, like the prototype's per-VM command loop, and
// serves the node's ops (store, fetch, FetchProcess) one at a time in the
// order they reach its inbox. A connection's goroutine reads and frames a
// request, delivers it to the home's resident, the server's one entry
// into the clock, waits for it to come back served and writes the reply.
// The home's resident passes an op on to its node's resident and serves
// Stats and ls itself, so neither waits behind a data op; their replies
// travel in a frame, since a home's object list outgrows a command
// packet. The server's lock guards only its listener, its map of
// connections and whether it is closed.
//
// Both ends read through one buffered reader per connection into buffers
// the connection reuses, and send each message, packet and frame
// together, in one write. Bodies are JSON in exactly json.Marshal's bytes,
// written and read without reflection (body.go).
package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/core"
	"cloud4home/internal/vclock"
)

// Server serves one home cloud over TCP.
type Server struct {
	home *core.Home
	desk *inbox // the home's resident's: every request enters the clock here
	// The home's resident owns these: each node's resident, by node and
	// in the order they started, and the group that joins them.
	residents map[*core.Node]*inbox
	started   []*inbox
	group     *vclock.Group

	mu      sync.Mutex
	ln      net.Listener          // guarded by mu
	open    map[net.Conn]struct{} // guarded by mu; connections being served
	conns   sync.WaitGroup
	closed  bool // guarded by mu
	closing sync.Once
}

// inbox is a resident's: requests filed in (instant, seq) order.
type inbox = vclock.Inbox[*request]

// request is one op handed to a resident and back: what the client asked
// for, the body that serves it and the reply it left. A connection owns
// one and reuses it, op after op.
type request struct {
	// do is the op's body. A node's resident passes its session, the
	// home's resident nil. The body sets err, or the reply: out for the
	// reply packet and frame for a frame after it.
	do func(s *Server, sess *core.Session, r *request)
	// reply hands r back once it is served.
	reply func(*request)
	// atNode marks an op for the resident of the home node named node
	// (the first by address when node is empty).
	atNode bool
	node   string

	store   storeReq
	payload []byte
	fetch   fetchReq
	process processReq

	err        error
	out, frame []byte
	stats      []NodeStats // a stats reply's nodes, reused
	grace      time.Time   // Close's write deadline
}

// NewServer serves an assembled home cloud. The caller is an actor holding
// the turn of the home's clock: it starts the home's resident. The clock
// must be paced before a connection is served, and its Run must be
// driving it while the server serves.
func NewServer(home *core.Home) *Server {
	v := home.Clock()
	s := &Server{
		home:      home,
		desk:      vclock.NewInbox[*request](v),
		residents: make(map[*core.Node]*inbox),
		group:     vclock.NewGroup(v),
		open:      make(map[net.Conn]struct{}),
	}
	v.Go(s.serveHome)
	return s
}

// serveHome is the home's resident. It takes the requests filed in its
// inbox one at a time: an op at a node goes on to that node's resident,
// which it starts on first use; any other it serves itself. A request with
// no body ends every node's resident, then this one.
func (s *Server) serveHome() {
	for {
		r := s.desk.Receive()
		switch {
		case r.do == nil:
			for _, in := range s.started {
				in.Send(nil)
			}
			s.group.Wait()
			r.reply(r)
			return
		case r.atNode:
			if in, err := s.resident(r.node); err != nil {
				r.err = err
				r.reply(r)
			} else {
				in.Send(r)
			}
		default:
			r.err = nil
			r.do(s, nil, r)
			r.reply(r)
		}
	}
}

// resident returns the resident of the named home node (the first by
// address when addr is empty), starting it on first use.
func (s *Server) resident(addr string) (*inbox, error) {
	var node *core.Node
	if addr != "" {
		node, _ = s.home.Node(addr)
	} else if nodes := s.home.Nodes(); len(nodes) > 0 { // ordered by address
		node = nodes[0]
	}
	if node == nil && addr == "" {
		return nil, errors.New("daemon: home cloud has no nodes")
	}
	if node == nil {
		return nil, fmt.Errorf("daemon: unknown home node %q", addr)
	}
	in := s.residents[node]
	if in == nil {
		in = vclock.NewInbox[*request](s.home.Clock())
		s.residents[node], s.started = in, append(s.started, in)
		s.group.Go(func() { s.serveNode(node, in) })
	}
	return in, nil
}

// serveNode is node's resident. Its first act opens the node's session; it
// then serves the requests filed in its inbox one at a time, each to
// completion, until a nil one. A core.Session is single-threaded (its
// created map and xenchan channel have no lock), and only this actor
// touches it. An open fails only on the node's channel config, so a failed
// one fails every op.
func (s *Server) serveNode(node *core.Node, in *inbox) {
	sess, err := node.OpenSession()
	if err == nil {
		defer sess.Close()
	}
	for r := in.Receive(); r != nil; r = in.Receive() {
		if r.err = err; err == nil {
			r.do(s, sess, r)
		}
		r.reply(r)
	}
}

// caller is a host goroutine's end of the residents: the request it hands
// them, reused op after op, and the channel the request comes back on.
type caller struct {
	req  request
	done chan struct{}
}

func newCaller() *caller {
	c := &caller{done: make(chan struct{}, 1)}
	c.req.reply = func(*request) { c.done <- struct{}{} }
	return c
}

// call delivers the request, to be served by do, to the home's resident
// and waits until it is back.
func (c *caller) call(s *Server, do func(*Server, *core.Session, *request)) {
	c.req.do = do
	s.desk.Deliver(&c.req)
	<-c.done
}

// Serve listens on addr until Close. It returns the bound address via
// Addr once listening.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("daemon: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return fmt.Errorf("daemon: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.open[conn] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.conns.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.open, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// Addr returns the listener address ("" before Serve binds).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// closeGrace is how long Close lets a reply write take: an op in flight
// at Close still replies, and a peer that never reads its reply holds
// Close no longer than this.
const closeGrace = time.Second

// Close stops the listener, waits for the connections to end, then ends
// every resident. Every connection's next request fails at once, read
// from the socket or already in its buffer, so an op in flight still
// writes its reply and an idle client is dropped. A reply write fails once
// closeGrace has passed. Close runs off the clock, since the ops in flight
// are served by residents it waits for, and while the clock's Run is
// driving it. A second Close waits for the first.
func (s *Server) Close() { s.closing.Do(s.close) }

func (s *Server) close() {
	c := newCaller()
	c.call(s, (*Server).graceAt)
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.open {
		// Any deadline in the past fails the next read at once.
		if conn.SetReadDeadline(time.Unix(1, 0)) != nil || conn.SetWriteDeadline(c.req.grace) != nil {
			conn.Close()
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.conns.Wait()
	// No connection is left to hand a resident anything.
	c.call(s, nil)
}

// graceAt is the home's resident's body for Close's write deadline. The
// home's clock is paced, so its Now is a wall instant (the kind a
// connection's deadline takes) plus the head start of a set-up run
// unpaced before Pace: c4hd's default home gives about 155 ms more grace
// than closeGrace.
func (s *Server) graceAt(_ *core.Session, r *request) {
	r.grace = s.home.Clock().Now().Add(closeGrace)
}

// unframed wraps the error of a request the daemon could not frame: an
// oversize or short payload frame, or a store request too garbled to say
// whether a frame follows. Nothing after it on the connection is known to
// start a command packet, so the connection ends after the error reply.
type unframed struct{ error }

// serverConn is the server's end of one connection.
type serverConn struct {
	*wire
	*caller
}

func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{newWire(conn, serverReadBuf), newCaller()}
	var pkt command.Packet
	for {
		if err := c.read(&pkt); err != nil {
			return // client went away, sent garbage or the server is closing
		}
		// A request already in the read buffer when Close came reads
		// without touching the connection, so its deadline cannot stop it.
		if s.isClosed() {
			return
		}
		if err := s.dispatch(c, &pkt); err != nil {
			c.writeError(err)
			if errors.As(err, new(unframed)) {
				return
			}
		}
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dispatch serves one command. A request's body is decoded from one
// string copy, which holds every name the op hands to core. An op is
// served by its node's resident and its reply written once it is back, so
// a client that does not read its reply holds only its own connection:
// what a reply carries is the op's own copy (a fetch's payload is the
// session-exit copy). Stats and ls are served by the home's resident.
func (s *Server) dispatch(c *serverConn, pkt *command.Packet) error {
	r := &c.req
	r.atNode = true
	var do func(*Server, *core.Session, *request)
	var err error
	switch pkt.Type {
	case command.TypeStore:
		if r.store, err = decodeStoreReq(string(pkt.Data)); err != nil {
			return unframed{fmt.Errorf("bad store request: %w", err)}
		}
		// The payload is read before the op is delivered, so a slow sender
		// does not hold its node.
		if r.store.HasPayload {
			if r.payload, err = c.readPayload(); err != nil {
				return unframed{err}
			}
		}
		r.node, do = r.store.Node, (*Server).storeBody
	case command.TypeFetch:
		if r.fetch, err = decodeFetchReq(string(pkt.Data)); err != nil {
			return fmt.Errorf("bad fetch request: %w", err)
		}
		r.node, do = r.fetch.Node, (*Server).fetchBody
	case command.TypeProcess:
		if r.process, err = decodeProcessReq(string(pkt.Data)); err != nil {
			return fmt.Errorf("bad process request: %w", err)
		}
		r.node, do = r.process.Node, (*Server).processBody
	case command.TypeStats:
		r.atNode, do = false, (*Server).statsBody
	case command.TypeList:
		r.atNode, do = false, (*Server).listBody
	default:
		return fmt.Errorf("unsupported command %s", pkt.Type)
	}
	c.call(s, do)
	if err = r.err; err == nil {
		err = c.send(pkt.Type, r.out, r.frame)
	}
	r.payload, r.frame = nil, nil // the op's own bytes: the reply was their last use
	return err
}

// The op bodies, which a resident runs on the clock. Stats and ls replies
// travel in a frame after an empty reply packet, since a home's object
// list outgrows command.MaxData; the frame is encoded in out's buffer.

func (s *Server) storeBody(sess *core.Session, r *request) {
	size := r.store.Size
	if r.payload != nil {
		size = 0
	}
	if r.err = sess.CreateObject(r.store.Name, r.store.Type, r.store.Tags); r.err != nil {
		return
	}
	res, err := sess.StoreObject(r.store.Name, r.payload, size, core.StoreOptions{Blocking: true})
	r.err = err
	r.out = appendStoreResp(r.out[:0], storeResp{
		Location: res.Location,
		TotalMS:  res.Total.Milliseconds(),
	})
}

func (s *Server) fetchBody(sess *core.Session, r *request) {
	res, err := sess.FetchObject(r.fetch.Name)
	r.err, r.frame = err, res.Data
	r.out = appendFetchResp(r.out[:0], fetchResp{
		Size:    res.Meta.Size,
		Source:  res.Source,
		TotalMS: res.Breakdown.Total.Milliseconds(),
		Sparse:  res.Data == nil,
	})
}

func (s *Server) processBody(sess *core.Session, r *request) {
	res, err := sess.FetchProcess(r.process.Name, r.process.Service, r.process.ID)
	r.err = err
	r.out = appendProcessResp(r.out[:0], processResp{
		Target:     res.Target,
		Mode:       res.Mode.String(),
		OutputSize: res.OutputSize,
		Detections: res.Detections,
		MatchID:    res.MatchID,
		TotalMS:    res.Breakdown.Total.Milliseconds(),
	})
}

// statsBody replies with per-node operation counters and machine state.
func (s *Server) statsBody(_ *core.Session, r *request) {
	r.stats = r.stats[:0]
	for _, n := range s.home.Nodes() {
		r.stats = append(r.stats, NodeStats{
			Addr:      n.Addr(),
			CPULoad:   n.Machine().Load(),
			MemFreeMB: n.Machine().MemFreeMB(),
			OpStats:   n.OpStats(),
		})
	}
	nodes := r.stats
	if len(nodes) == 0 {
		nodes = nil // no node: "nodes":null, as a nil slice marshals
	}
	r.frame, r.err = appendStats(r.out[:0], nodes)
	r.out = r.frame[:0]
}

// listBody replies with the home's nodes and objects.
func (s *Server) listBody(_ *core.Session, r *request) {
	var l listResp
	for _, n := range s.home.Nodes() {
		l.Nodes = append(l.Nodes, n.Addr())
		l.Objects = append(l.Objects, n.ObjectStore().List()...)
	}
	r.frame = appendList(r.out[:0], l)
	r.out = r.frame[:0]
}

func (c *serverConn) writeError(err error) {
	msg := err.Error()
	if len(msg) > command.MaxData {
		msg = msg[:command.MaxData]
	}
	c.body = append(c.body[:0], msg...)
	if werr := c.send(command.TypeError, c.body, nil); werr != nil {
		// The reply channel itself is broken; close so the client sees a
		// hard failure instead of a hung read (the handler's own close is
		// idempotent).
		_ = c.conn.Close()
	}
}
