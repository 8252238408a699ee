package daemon

import (
	"errors"
	"fmt"
	"net"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/core"
)

// Errors returned by the client.
var (
	ErrRemote = errors.New("daemon: server reported error")
)

// Client is the CLI side of the protocol. It serves one call at a time.
type Client struct {
	w     *wire
	reply command.Packet // the last reply; its Data aliases the wire
}

// Dial connects to a c4hd server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s: %w", addr, err)
	}
	return &Client{w: newWire(conn, clientReadBuf)}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.w.conn.Close() }

// roundTrip sends one request, its body encoded in c.w.body and its
// payload, if not nil, in a frame, and reads the reply packet into
// c.reply.
//
// c4h:hotpath
func (c *Client) roundTrip(t command.Type, payload []byte) error {
	if err := c.w.send(t, c.w.body, payload); err != nil {
		return err
	}
	if err := c.w.read(&c.reply); err != nil {
		return err
	}
	if c.reply.Type == command.TypeError {
		return fmt.Errorf("%w: %s", ErrRemote, c.reply.Data)
	}
	return nil
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
	c.w.body = appendStoreReq(c.w.body[:0], req)
	if err := c.roundTrip(command.TypeStore, payload); err != nil {
		return StoreResult{}, err
	}
	body, err := decodeStoreResp(string(c.reply.Data))
	if err != nil {
		return StoreResult{}, fmt.Errorf("daemon: store reply: %w", err)
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
	c.w.body = appendFetchReq(c.w.body[:0], fetchReq{Name: name, Node: node})
	if err := c.roundTrip(command.TypeFetch, nil); err != nil {
		return FetchResult{}, err
	}
	body, err := decodeFetchResp(string(c.reply.Data))
	if err != nil {
		return FetchResult{}, fmt.Errorf("daemon: fetch reply: %w", err)
	}
	res := FetchResult{
		Size:   body.Size,
		Source: body.Source,
		Total:  time.Duration(body.TotalMS) * time.Millisecond,
	}
	if !body.Sparse {
		if res.Data, err = c.w.readPayload(); err != nil {
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
	c.w.body = appendProcessReq(c.w.body[:0], processReq{Name: name, Service: service, ID: id, Node: node})
	if err := c.roundTrip(command.TypeProcess, nil); err != nil {
		return ProcessResult{}, err
	}
	body, err := decodeProcessResp(string(c.reply.Data))
	if err != nil {
		return ProcessResult{}, fmt.Errorf("daemon: process reply: %w", err)
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

// NodeStats is one node's activity snapshot as reported by Stats: the
// node's address and machine state, and every core.OpStats counter
// (OverlapSaved in whole milliseconds).
type NodeStats struct {
	Addr      string
	CPULoad   float64
	MemFreeMB int64
	core.OpStats
}

// Stats returns per-node operation counters and machine state. The
// addresses are substrings of one copy of the reply.
func (c *Client) Stats() ([]NodeStats, error) {
	body, err := c.framedReply(command.TypeStats)
	if err != nil {
		return nil, err
	}
	nodes, err := decodeStats(string(body))
	if err != nil {
		return nil, fmt.Errorf("daemon: stats reply: %w", err)
	}
	return nodes, nil
}

// List enumerates nodes and stored objects.
func (c *Client) List() (nodes, objects []string, err error) {
	body, err := c.framedReply(command.TypeList)
	if err != nil {
		return nil, nil, err
	}
	r, err := decodeList(string(body))
	if err != nil {
		return nil, nil, fmt.Errorf("daemon: ls reply: %w", err)
	}
	return r.Nodes, r.Objects, nil
}

// framedReply sends a request with an empty body and reads the frame that
// follows its reply packet into the wire's reused buffer.
func (c *Client) framedReply(t command.Type) ([]byte, error) {
	c.w.body = append(c.w.body[:0], emptyBody...)
	if err := c.roundTrip(t, nil); err != nil {
		return nil, err
	}
	return c.w.readBody()
}
