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
// goroutine waits for. Stats and ls stay off the clock: they read only
// atomics and locked state.
package daemon

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/core"
)

// MaxPayload bounds object payloads accepted over the wire (64 MB).
const MaxPayload = 64 << 20

// Errors returned by the client.
var (
	ErrRemote = errors.New("daemon: server reported error")
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
// the clock until their reply is written; ops on different nodes
// interleave on the clock.
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

// Close stops the listener and waits for the connections to end. Every
// connection's next read fails at once, so an op in flight still writes
// its reply and an idle client is dropped.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.open {
		// Any deadline in the past fails the next read at once.
		if err := conn.SetReadDeadline(time.Unix(1, 0)); err != nil {
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
// caller releases the turn once its reply is written.
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

// lookup returns the entry for the named home node, making it on first
// use.
func (s *Server) lookup(nodeAddr string) (*nodeSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nodeAddr == "" {
		nodes := s.home.Nodes() // ordered by address
		if len(nodes) == 0 {
			return nil, errors.New("daemon: home cloud has no nodes")
		}
		nodeAddr = nodes[0].Addr()
	}
	if ns, ok := s.sessions[nodeAddr]; ok {
		return ns, nil
	}
	node, ok := s.home.Node(nodeAddr)
	if !ok {
		return nil, fmt.Errorf("daemon: unknown home node %q", nodeAddr)
	}
	ns := &nodeSession{node: node, turn: make(chan struct{}, 1)}
	s.sessions[nodeAddr] = ns
	return ns, nil
}

// request/response JSON bodies carried in command packet Data.

type storeReq struct {
	Name string   `json:"name"`
	Type string   `json:"type,omitempty"`
	Tags []string `json:"tags,omitempty"`
	Size int64    `json:"size"`
	// HasPayload marks that a payload frame follows the command packet;
	// otherwise the object is sparse with the declared Size.
	HasPayload bool   `json:"hasPayload"`
	Node       string `json:"node,omitempty"`
}

type storeResp struct {
	Location string `json:"location"`
	TotalMS  int64  `json:"totalMs"`
}

type fetchReq struct {
	Name string `json:"name"`
	Node string `json:"node,omitempty"`
}

type fetchResp struct {
	Size    int64  `json:"size"`
	Source  string `json:"source"`
	TotalMS int64  `json:"totalMs"`
	Sparse  bool   `json:"sparse"`
}

type processReq struct {
	Name    string `json:"name"`
	Service string `json:"service"`
	ID      uint32 `json:"id"`
	Node    string `json:"node,omitempty"`
}

type processResp struct {
	Target     string `json:"target"`
	Mode       string `json:"mode"`
	OutputSize int64  `json:"outputSize"`
	Detections int    `json:"detections"`
	MatchID    int    `json:"matchId"`
	TotalMS    int64  `json:"totalMs"`
}

type listResp struct {
	Nodes   []string `json:"nodes"`
	Objects []string `json:"objects"`
}

type nodeStats struct {
	Addr         string  `json:"addr"`
	Stores       int64   `json:"stores"`
	Fetches      int64   `json:"fetches"`
	Processes    int64   `json:"processes"`
	Deletes      int64   `json:"deletes"`
	BytesStored  int64   `json:"bytesStored"`
	BytesFetched int64   `json:"bytesFetched"`
	CPULoad      float64 `json:"cpuLoad"`
	MemFreeMB    int64   `json:"memFreeMb"`
	// Data-plane counters (zero unless core.Config enables the dom0
	// cache, fetch coalescing or a non-blocking store that drops).
	CacheHits        int64 `json:"cacheHits,omitempty"`
	CacheMisses      int64 `json:"cacheMisses,omitempty"`
	CoalescedFetches int64 `json:"coalescedFetches,omitempty"`
	AsyncPlaceDrops  int64 `json:"asyncPlaceDrops,omitempty"`
	// Compute-plane counters (zero unless core.Config enables the
	// concurrent features).
	ShardsExecuted int64 `json:"shardsExecuted,omitempty"`
	OverlapSavedMS int64 `json:"overlapSavedMs,omitempty"`
	SpecLaunches   int64 `json:"specLaunches,omitempty"`
	SpecWins       int64 `json:"specWins,omitempty"`
	SpecCancels    int64 `json:"specCancels,omitempty"`
	// Fault-tolerance counters (zero unless core.Config enables the
	// fallback ladder / post-crash repair).
	FetchRetries     int64 `json:"fetchRetries,omitempty"`
	ObjectsRepaired  int64 `json:"objectsRepaired,omitempty"`
	ReplicasRestored int64 `json:"replicasRestored,omitempty"`
	// Federation counters (zero unless core.Config enables charged
	// cloud probes and erasure-coded redundancy).
	CloudProbes       int64 `json:"cloudProbes,omitempty"`
	FederatedProbes   int64 `json:"federatedProbes,omitempty"`
	ShardsPlaced      int64 `json:"shardsPlaced,omitempty"`
	ShardsRestored    int64 `json:"shardsRestored,omitempty"`
	ShardReconstructs int64 `json:"shardReconstructs,omitempty"`
	// City-scale counters: total metadata-routing hops, the super-peer
	// subset (zero unless core.Config.SuperPeerRegions > 1), and
	// the shared membership arena gauge.
	KVHops        int64 `json:"kvHops,omitempty"`
	SuperPeerHops int64 `json:"superPeerHops,omitempty"`
	ArenaBytes    int64 `json:"arenaBytes,omitempty"`
}

type statsResp struct {
	Nodes []nodeStats `json:"nodes"`
}

// unframed wraps the error of a request the daemon could not frame: an
// oversize or short payload frame, or a store request too garbled to say
// whether a frame follows. Nothing after it on the connection is known to
// start a command packet, so the connection ends after the error reply.
type unframed struct{ error }

func (s *Server) serveConn(conn net.Conn) {
	for {
		pkt, err := command.Read(conn)
		if err != nil {
			return // client went away, sent garbage or the server is closing
		}
		if err := s.dispatch(conn, pkt); err != nil {
			s.writeError(conn, err)
			if errors.As(err, new(unframed)) {
				return
			}
		}
	}
}

// dispatch serves one command. Ops that use a session hold their node's
// turn until the reply is written; Stats and ls take no turn.
func (s *Server) dispatch(conn net.Conn, pkt *command.Packet) error {
	switch pkt.Type {
	case command.TypeStore:
		var req storeReq
		if err := json.Unmarshal(pkt.Data, &req); err != nil {
			return unframed{fmt.Errorf("bad store request: %w", err)}
		}
		// The payload is read before taking the turn, so a slow sender
		// does not hold its node.
		var payload []byte
		if req.HasPayload {
			var err error
			payload, err = readFrame(conn)
			if err != nil {
				return unframed{err}
			}
		}
		ns, err := s.take(req.Node)
		if err != nil {
			return err
		}
		defer ns.release()
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
		if err != nil {
			return err
		}
		return s.writeJSON(conn, command.TypeStore, storeResp{
			Location: res.Location,
			TotalMS:  res.Total.Milliseconds(),
		}, nil)

	case command.TypeFetch:
		var req fetchReq
		if err := json.Unmarshal(pkt.Data, &req); err != nil {
			return fmt.Errorf("bad fetch request: %w", err)
		}
		ns, err := s.take(req.Node)
		if err != nil {
			return err
		}
		defer ns.release()
		var res core.FetchResult
		s.onClock(func() { res, err = ns.sess.FetchObject(req.Name) })
		if err != nil {
			return err
		}
		return s.writeJSON(conn, command.TypeFetch, fetchResp{
			Size:    res.Meta.Size,
			Source:  res.Source,
			TotalMS: res.Breakdown.Total.Milliseconds(),
			Sparse:  res.Data == nil,
		}, res.Data)

	case command.TypeProcess:
		var req processReq
		if err := json.Unmarshal(pkt.Data, &req); err != nil {
			return fmt.Errorf("bad process request: %w", err)
		}
		ns, err := s.take(req.Node)
		if err != nil {
			return err
		}
		defer ns.release()
		var res core.ProcessResult
		s.onClock(func() { res, err = ns.sess.FetchProcess(req.Name, req.Service, req.ID) })
		if err != nil {
			return err
		}
		return s.writeJSON(conn, command.TypeProcess, processResp{
			Target:     res.Target,
			Mode:       res.Mode.String(),
			OutputSize: res.OutputSize,
			Detections: res.Detections,
			MatchID:    res.MatchID,
			TotalMS:    res.Breakdown.Total.Milliseconds(),
		}, nil)

	case command.TypeStats:
		// "stats": per-node operation counters and machine state.
		var out statsResp
		for _, n := range s.home.Nodes() {
			ops := n.OpStats()
			out.Nodes = append(out.Nodes, nodeStats{
				Addr:              n.Addr(),
				Stores:            ops.Stores,
				Fetches:           ops.Fetches,
				Processes:         ops.Processes,
				Deletes:           ops.Deletes,
				BytesStored:       ops.BytesStored,
				BytesFetched:      ops.BytesFetched,
				CPULoad:           n.Machine().Load(),
				MemFreeMB:         n.Machine().MemFreeMB(),
				CacheHits:         ops.CacheHits,
				CacheMisses:       ops.CacheMisses,
				CoalescedFetches:  ops.CoalescedFetches,
				AsyncPlaceDrops:   ops.AsyncPlaceDrops,
				ShardsExecuted:    ops.ShardsExecuted,
				OverlapSavedMS:    ops.OverlapSaved.Milliseconds(),
				SpecLaunches:      ops.SpecLaunches,
				SpecWins:          ops.SpecWins,
				SpecCancels:       ops.SpecCancels,
				FetchRetries:      ops.FetchRetries,
				ObjectsRepaired:   ops.ObjectsRepaired,
				ReplicasRestored:  ops.ReplicasRestored,
				CloudProbes:       ops.CloudProbes,
				FederatedProbes:   ops.FederatedProbes,
				ShardsPlaced:      ops.ShardsPlaced,
				ShardsRestored:    ops.ShardsRestored,
				ShardReconstructs: ops.ShardReconstructs,
				KVHops:            ops.KVHops,
				SuperPeerHops:     ops.SuperPeerHops,
				ArenaBytes:        ops.ArenaBytes,
			})
		}
		return s.writeJSON(conn, command.TypeStats, out, nil)

	case command.TypeList:
		// "ls": enumerate nodes and objects.
		var nodes, objects []string
		for _, n := range s.home.Nodes() {
			nodes = append(nodes, n.Addr())
			objects = append(objects, n.ObjectStore().List()...)
		}
		return s.writeJSON(conn, command.TypeList, listResp{
			Nodes:   nodes,
			Objects: objects,
		}, nil)

	default:
		return fmt.Errorf("unsupported command %s", pkt.Type)
	}
}

func (s *Server) writeJSON(conn net.Conn, t command.Type, body any, payload []byte) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp := command.Packet{Type: t, Data: data}
	if err := command.Write(conn, &resp); err != nil {
		return err
	}
	if payload != nil {
		return writeFrame(conn, payload)
	}
	return nil
}

func (s *Server) writeError(conn net.Conn, err error) {
	msg := err.Error()
	if len(msg) > command.MaxData {
		msg = msg[:command.MaxData]
	}
	pkt := command.Packet{Type: command.TypeError, Data: []byte(msg)}
	if werr := command.Write(conn, &pkt); werr != nil {
		// The reply channel itself is broken; close so the client sees a
		// hard failure instead of a hung read (the handler's own close is
		// idempotent).
		_ = conn.Close()
	}
}

// frameStep is the first buffer readFrame fills: a declared length is
// only trusted as far as the bytes that have actually arrived.
const frameStep = 64 << 10

// readFrame reads one length-prefixed payload frame. The body is read in
// bounded steps, min(n, 64 KB) first and then doubling, so a header that
// declares a large frame costs memory only as its bytes arrive; a frame
// of at most 64 KB is one allocation of exactly n bytes.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("daemon: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if n > MaxPayload {
		return nil, fmt.Errorf("daemon: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, min(n, frameStep))
	for filled := 0; ; {
		m, err := io.ReadFull(r, buf[filled:])
		filled += m
		if err != nil {
			return nil, fmt.Errorf("daemon: read frame body: %w", err)
		}
		if uint64(filled) == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*uint64(cap(buf))))
		copy(grown, buf)
		buf = grown
	}
}

// writeFrame writes one length-prefixed payload frame.
func writeFrame(w io.Writer, data []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// Client is the CLI side of the protocol.
type Client struct {
	conn net.Conn
}

// Dial connects to a c4hd server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(t command.Type, body any, payload []byte) (*command.Packet, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := command.Packet{Type: t, Data: data}
	if err := command.Write(c.conn, &req); err != nil {
		return nil, err
	}
	if payload != nil {
		if err := writeFrame(c.conn, payload); err != nil {
			return nil, err
		}
	}
	resp, err := command.Read(c.conn)
	if err != nil {
		return nil, err
	}
	if resp.Type == command.TypeError {
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Data)
	}
	return resp, nil
}

// StoreResult is a client-visible store outcome.
type StoreResult struct {
	Location string
	Total    time.Duration
}

// Store uploads an object (payload may be nil for a sparse object of the
// given size).
func (c *Client) Store(name, typ string, payload []byte, size int64, node string) (StoreResult, error) {
	req := storeReq{Name: name, Type: typ, Size: size, Node: node}
	if payload != nil {
		req.Size = int64(len(payload))
		req.HasPayload = true
	}
	resp, err := c.roundTrip(command.TypeStore, req, payload)
	if err != nil {
		return StoreResult{}, err
	}
	var body storeResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return StoreResult{}, err
	}
	return StoreResult{
		Location: body.Location,
		Total:    time.Duration(body.TotalMS) * time.Millisecond,
	}, nil
}

// FetchResult is a client-visible fetch outcome.
type FetchResult struct {
	Data   []byte
	Size   int64
	Source string
	Total  time.Duration
}

// Fetch downloads an object.
func (c *Client) Fetch(name, node string) (FetchResult, error) {
	resp, err := c.roundTrip(command.TypeFetch, fetchReq{Name: name, Node: node}, nil)
	if err != nil {
		return FetchResult{}, err
	}
	var body fetchResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return FetchResult{}, err
	}
	res := FetchResult{
		Size:   body.Size,
		Source: body.Source,
		Total:  time.Duration(body.TotalMS) * time.Millisecond,
	}
	if !body.Sparse {
		res.Data, err = readFrame(c.conn)
		if err != nil {
			return FetchResult{}, err
		}
	}
	return res, nil
}

// ProcessResult is a client-visible process outcome.
type ProcessResult struct {
	Target     string
	Mode       string
	OutputSize int64
	Detections int
	MatchID    int
	Total      time.Duration
}

// Process runs a fetch-and-process operation.
func (c *Client) Process(name, service string, id uint32, node string) (ProcessResult, error) {
	resp, err := c.roundTrip(command.TypeProcess, processReq{Name: name, Service: service, ID: id, Node: node}, nil)
	if err != nil {
		return ProcessResult{}, err
	}
	var body processResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return ProcessResult{}, err
	}
	return ProcessResult{
		Target:     body.Target,
		Mode:       body.Mode,
		OutputSize: body.OutputSize,
		Detections: body.Detections,
		MatchID:    body.MatchID,
		Total:      time.Duration(body.TotalMS) * time.Millisecond,
	}, nil
}

// NodeStats is one node's activity snapshot as reported by Stats.
type NodeStats struct {
	Addr         string
	Stores       int64
	Fetches      int64
	Processes    int64
	Deletes      int64
	BytesStored  int64
	BytesFetched int64
	CPULoad      float64
	MemFreeMB    int64
	// Data-plane counters; zero while the dom0 cache and fetch
	// coalescing are off and every non-blocking store is placed.
	CacheHits        int64
	CacheMisses      int64
	CoalescedFetches int64
	AsyncPlaceDrops  int64
	// Compute-plane counters; zero on the paper's sequential path.
	ShardsExecuted int64
	OverlapSaved   time.Duration
	SpecLaunches   int64
	SpecWins       int64
	SpecCancels    int64
	// Fault-tolerance counters; zero while Fallback and Repair are off.
	FetchRetries     int64
	ObjectsRepaired  int64
	ReplicasRestored int64
	// Federation counters; zero while Fallback is off, erasure coding
	// unset and no neighbour home is federated.
	CloudProbes       int64
	FederatedProbes   int64
	ShardsPlaced      int64
	ShardsRestored    int64
	ShardReconstructs int64
	// City-scale counters; KVHops is the node's total metadata-routing
	// hops, SuperPeerHops the aggregator-tier subset, ArenaBytes the
	// shared membership arena gauge (whole-mesh).
	KVHops        int64
	SuperPeerHops int64
	ArenaBytes    int64
}

// Stats returns per-node operation counters and machine state.
func (c *Client) Stats() ([]NodeStats, error) {
	resp, err := c.roundTrip(command.TypeStats, struct{}{}, nil)
	if err != nil {
		return nil, err
	}
	var body statsResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return nil, err
	}
	out := make([]NodeStats, len(body.Nodes))
	for i, n := range body.Nodes {
		out[i] = NodeStats{
			Addr:              n.Addr,
			Stores:            n.Stores,
			Fetches:           n.Fetches,
			Processes:         n.Processes,
			Deletes:           n.Deletes,
			BytesStored:       n.BytesStored,
			BytesFetched:      n.BytesFetched,
			CPULoad:           n.CPULoad,
			MemFreeMB:         n.MemFreeMB,
			CacheHits:         n.CacheHits,
			CacheMisses:       n.CacheMisses,
			CoalescedFetches:  n.CoalescedFetches,
			AsyncPlaceDrops:   n.AsyncPlaceDrops,
			ShardsExecuted:    n.ShardsExecuted,
			OverlapSaved:      time.Duration(n.OverlapSavedMS) * time.Millisecond,
			SpecLaunches:      n.SpecLaunches,
			SpecWins:          n.SpecWins,
			SpecCancels:       n.SpecCancels,
			FetchRetries:      n.FetchRetries,
			ObjectsRepaired:   n.ObjectsRepaired,
			ReplicasRestored:  n.ReplicasRestored,
			CloudProbes:       n.CloudProbes,
			FederatedProbes:   n.FederatedProbes,
			ShardsPlaced:      n.ShardsPlaced,
			ShardsRestored:    n.ShardsRestored,
			ShardReconstructs: n.ShardReconstructs,
			KVHops:            n.KVHops,
			SuperPeerHops:     n.SuperPeerHops,
			ArenaBytes:        n.ArenaBytes,
		}
	}
	return out, nil
}

// List enumerates nodes and stored objects.
func (c *Client) List() (nodes, objects []string, err error) {
	resp, err := c.roundTrip(command.TypeList, struct{}{}, nil)
	if err != nil {
		return nil, nil, err
	}
	var body listResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return nil, nil, err
	}
	return body.Nodes, body.Objects, nil
}
