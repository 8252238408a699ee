// Package daemon exposes a VStore++ home cloud over real TCP sockets
// using the command-packet protocol of §IV. The c4hd binary hosts the
// home cloud (its devices run in-process on a virtual clock paced to the
// wall clock, as the paper's prototype ran every VM on one testbed); c4h
// is the CLI client. Control messages are command packets ("usually less
// than 50 bytes ... use TCP/IP sockets"); object payloads follow as
// length-prefixed frames, mirroring the prototype's separation of command
// and data channels.
//
// A connection's goroutine reads and frames each request and writes its
// reply; the op body between (session open, create + store, fetch,
// FetchProcess) runs as an actor posted to the home's clock, which the
// goroutine waits for. Stats and ls read the home on the clock too, as
// actors that take no node turn, and their replies travel in a frame,
// since a home's object list outgrows a command packet. The server's own
// lock guards only its maps of sessions and connections, which the
// connection goroutines share.
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
)

// Server serves one home cloud over TCP.
type Server struct {
	home *core.Home

	mu       sync.Mutex
	ln       net.Listener            // guarded by mu
	sessions map[string]*nodeSession // guarded by mu; one per home node, lazily made
	open     map[net.Conn]struct{}   // guarded by mu; connections being served
	conns    sync.WaitGroup
	closed   bool // guarded by mu
}

// nodeSession is the server's session at one home node and the turn that
// serialises it. A core.Session is single-threaded, like the prototype's
// per-VM command loop (its created map and xenchan channel have no lock),
// so the ops on one node take turns, from before their body is posted to
// the clock until the body returns; ops on different nodes interleave on
// the clock. The reply is written after the turn is given back: what it
// carries is the op's own copy (a fetch's payload is the session-exit
// copy), so a client that never reads its reply stalls only itself.
type nodeSession struct {
	node *core.Node
	// turn has one slot: sending into it takes the turn, receiving from it
	// gives the turn back. Go queues blocked senders in arrival order, so
	// a node's ops are served first come, first served.
	turn chan struct{}
	// sess is opened by the first op to hold the turn, and read or written
	// only while holding it.
	sess *core.Session
}

// release gives the node's turn to the next op waiting for it.
func (ns *nodeSession) release() { <-ns.turn }

// NewServer wraps an assembled home cloud on a paced clock. The clock's
// Run must be driving it while the server serves.
func NewServer(home *core.Home) *Server {
	return &Server{
		home:     home,
		sessions: make(map[string]*nodeSession),
		open:     make(map[net.Conn]struct{}),
	}
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
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
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

// Close stops the listener and waits for the connections to end. Every
// connection's next request fails at once, read from the socket or
// already in its buffer, so an op in flight still writes its reply and an
// idle client is dropped. A reply write fails once closeGrace has passed.
// The home's clock must still be running.
func (s *Server) Close() {
	// The home's clock is paced, so its Now is a wall instant (the kind a
	// connection's deadline takes) plus the head start of a set-up run
	// unpaced before Pace: c4hd's default home gives about 155 ms more
	// grace than closeGrace.
	var grace time.Time
	s.onClock(func() { grace = s.home.Clock().Now().Add(closeGrace) })
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.open {
		// Any deadline in the past fails the next read at once.
		if conn.SetReadDeadline(time.Unix(1, 0)) != nil || conn.SetWriteDeadline(grace) != nil {
			conn.Close()
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.conns.Wait()
}

// take waits for the turn at the named home node (the first by address
// when nodeAddr is empty), opening the node's session on first use. The
// caller releases the turn once its op body returns.
func (s *Server) take(nodeAddr string) (*nodeSession, error) {
	ns, err := s.lookup(nodeAddr)
	if err != nil {
		return nil, err
	}
	ns.turn <- struct{}{}
	if ns.sess == nil {
		var sess *core.Session
		s.onClock(func() { sess, err = ns.node.OpenSession() })
		if err != nil {
			ns.release()
			return nil, err
		}
		ns.sess = sess
	}
	return ns, nil
}

// onClock runs fn as an actor posted to the home's clock and waits for it
// to return.
func (s *Server) onClock(fn func()) {
	done := make(chan struct{})
	s.home.Clock().Post(func() {
		fn()
		close(done)
	})
	<-done
}

// lookup returns the entry for the named home node (the first by
// address when nodeAddr is empty), making it on first use. Only a miss
// asks the home, on the clock, which node the address names.
func (s *Server) lookup(nodeAddr string) (*nodeSession, error) {
	s.mu.Lock()
	ns, ok := s.sessions[nodeAddr]
	s.mu.Unlock()
	if ok {
		return ns, nil
	}
	var node *core.Node
	s.onClock(func() {
		if nodeAddr != "" {
			node, _ = s.home.Node(nodeAddr)
		} else if nodes := s.home.Nodes(); len(nodes) > 0 { // ordered by address
			node = nodes[0]
		}
	})
	if node == nil && nodeAddr == "" {
		return nil, errors.New("daemon: home cloud has no nodes")
	}
	if node == nil {
		return nil, fmt.Errorf("daemon: unknown home node %q", nodeAddr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Another connection may have made the node's entry meanwhile, and the
	// empty address shares the first node's.
	ns, ok = s.sessions[node.Addr()]
	if !ok {
		ns = &nodeSession{node: node, turn: make(chan struct{}, 1)}
		s.sessions[node.Addr()] = ns
	}
	s.sessions[nodeAddr] = ns
	return ns, nil
}

// unframed wraps the error of a request the daemon could not frame: an
// oversize or short payload frame, or a store request too garbled to say
// whether a frame follows. Nothing after it on the connection is known to
// start a command packet, so the connection ends after the error reply.
type unframed struct{ error }

// serverConn is the server's end of one connection.
type serverConn struct {
	*wire
	stats []NodeStats // a stats reply's nodes, reused
}

func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{wire: newWire(conn, serverReadBuf)}
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
// string copy, which holds every name the op hands to core. Ops that use
// a session hold their node's turn while their body runs and give it
// back before the reply is written, so a client that does not read its
// reply holds only its own connection. Stats and ls read the home in an
// actor of their own and take no turn.
func (s *Server) dispatch(c *serverConn, pkt *command.Packet) error {
	switch pkt.Type {
	case command.TypeStore:
		req, err := decodeStoreReq(string(pkt.Data))
		if err != nil {
			return unframed{fmt.Errorf("bad store request: %w", err)}
		}
		// The payload is read before taking the turn, so a slow sender
		// does not hold its node.
		var payload []byte
		if req.HasPayload {
			if payload, err = c.readPayload(); err != nil {
				return unframed{err}
			}
		}
		ns, err := s.take(req.Node)
		if err != nil {
			return err
		}
		size := req.Size
		if payload != nil {
			size = 0
		}
		var res core.StoreResult
		s.onClock(func() {
			if err = ns.sess.CreateObject(req.Name, req.Type, req.Tags); err == nil {
				res, err = ns.sess.StoreObject(req.Name, payload, size, core.StoreOptions{Blocking: true})
			}
		})
		ns.release()
		if err != nil {
			return err
		}
		c.body = appendStoreResp(c.body[:0], storeResp{
			Location: res.Location,
			TotalMS:  res.Total.Milliseconds(),
		})
		return c.send(command.TypeStore, c.body, nil)

	case command.TypeFetch:
		req, err := decodeFetchReq(string(pkt.Data))
		if err != nil {
			return fmt.Errorf("bad fetch request: %w", err)
		}
		ns, err := s.take(req.Node)
		if err != nil {
			return err
		}
		var res core.FetchResult
		s.onClock(func() { res, err = ns.sess.FetchObject(req.Name) })
		ns.release() // res.Data is the fetch's own copy, not the session's
		if err != nil {
			return err
		}
		c.body = appendFetchResp(c.body[:0], fetchResp{
			Size:    res.Meta.Size,
			Source:  res.Source,
			TotalMS: res.Breakdown.Total.Milliseconds(),
			Sparse:  res.Data == nil,
		})
		return c.send(command.TypeFetch, c.body, res.Data)

	case command.TypeProcess:
		req, err := decodeProcessReq(string(pkt.Data))
		if err != nil {
			return fmt.Errorf("bad process request: %w", err)
		}
		ns, err := s.take(req.Node)
		if err != nil {
			return err
		}
		var res core.ProcessResult
		s.onClock(func() { res, err = ns.sess.FetchProcess(req.Name, req.Service, req.ID) })
		ns.release()
		if err != nil {
			return err
		}
		c.body = appendProcessResp(c.body[:0], processResp{
			Target:     res.Target,
			Mode:       res.Mode.String(),
			OutputSize: res.OutputSize,
			Detections: res.Detections,
			MatchID:    res.MatchID,
			TotalMS:    res.Breakdown.Total.Milliseconds(),
		})
		return c.send(command.TypeProcess, c.body, nil)

	case command.TypeStats:
		// "stats": per-node operation counters and machine state, in a
		// frame after an empty reply packet.
		c.stats = c.stats[:0]
		s.onClock(func() {
			for _, n := range s.home.Nodes() {
				c.stats = append(c.stats, NodeStats{
					Addr:      n.Addr(),
					CPULoad:   n.Machine().Load(),
					MemFreeMB: n.Machine().MemFreeMB(),
					OpStats:   n.OpStats(),
				})
			}
		})
		nodes := c.stats
		if len(nodes) == 0 {
			nodes = nil // no node: "nodes":null, as a nil slice marshals
		}
		body, err := appendStats(c.body[:0], nodes)
		c.body = body
		if err != nil {
			return err
		}
		return c.send(command.TypeStats, nil, c.body)

	case command.TypeList:
		// "ls": enumerate nodes and objects, in a frame after an empty
		// reply packet.
		var r listResp
		s.onClock(func() {
			for _, n := range s.home.Nodes() {
				r.Nodes = append(r.Nodes, n.Addr())
				r.Objects = append(r.Objects, n.ObjectStore().List()...)
			}
		})
		c.body = appendList(c.body[:0], r)
		return c.send(command.TypeList, nil, c.body)

	default:
		return fmt.Errorf("unsupported command %s", pkt.Type)
	}
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
