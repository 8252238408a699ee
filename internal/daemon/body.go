package daemon

import (
	"iter"
	"strconv"
	"time"

	"cloud4home/internal/canonjson"
	"cloud4home/internal/core"
)

// The JSON bodies of requests and replies. Each is written field by field
// in exactly the bytes json.Marshal writes for its struct below (the tags
// are the wire's keys, in the wire's order), and read back by a strict
// decoder that accepts that shape only: the keys in order, no whitespace.
// Whatever a decoder accepts, json.Unmarshal accepts with an equal value
// (FuzzCommandBodies). A decoder reads a string copy of the body, and the
// strings in its result are substrings of that copy.

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

// fetchResp rides in the reply packet; unless Sparse, the payload follows
// in a frame.
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

// listResp rides in a frame after an empty reply packet, as the stats
// reply does: a home's object list outgrows command.MaxData.
type listResp struct {
	Nodes   []string `json:"nodes"`
	Objects []string `json:"objects"`
}

// emptyBody is the body of a stats or ls request, json.Marshal's bytes
// for struct{}{}.
var emptyBody = []byte(`{}`)

func appendStoreReq(b []byte, r storeReq) []byte {
	b = append(b, `{"name":`...)
	b = canonjson.AppendString(b, r.Name)
	if r.Type != "" {
		b = append(b, `,"type":`...)
		b = canonjson.AppendString(b, r.Type)
	}
	if len(r.Tags) > 0 {
		b = append(b, `,"tags":`...)
		b = canonjson.AppendStrings(b, r.Tags)
	}
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, r.Size, 10)
	b = append(b, `,"hasPayload":`...)
	b = strconv.AppendBool(b, r.HasPayload)
	b = appendNode(b, r.Node)
	return append(b, '}')
}

func decodeStoreReq(s string) (storeReq, error) {
	d := canonjson.NewDecoder(s)
	var r storeReq
	d.Lit(`{"name":`)
	r.Name = d.Str()
	if d.Opt(`,"type":`) {
		r.Type = d.Str()
	}
	if d.Opt(`,"tags":`) {
		r.Tags = d.Strs()
	}
	d.Lit(`,"size":`)
	r.Size = d.Int(64)
	d.Lit(`,"hasPayload":`)
	r.HasPayload = d.Bool()
	r.Node = decodeNode(&d)
	return r, d.End()
}

func appendStoreResp(b []byte, r storeResp) []byte {
	b = append(b, `{"location":`...)
	b = canonjson.AppendString(b, r.Location)
	b = append(b, `,"totalMs":`...)
	b = strconv.AppendInt(b, r.TotalMS, 10)
	return append(b, '}')
}

func decodeStoreResp(s string) (storeResp, error) {
	d := canonjson.NewDecoder(s)
	var r storeResp
	d.Lit(`{"location":`)
	r.Location = d.Str()
	d.Lit(`,"totalMs":`)
	r.TotalMS = d.Int(64)
	d.Lit(`}`)
	return r, d.End()
}

func appendFetchReq(b []byte, r fetchReq) []byte {
	b = append(b, `{"name":`...)
	b = canonjson.AppendString(b, r.Name)
	b = appendNode(b, r.Node)
	return append(b, '}')
}

func decodeFetchReq(s string) (fetchReq, error) {
	d := canonjson.NewDecoder(s)
	var r fetchReq
	d.Lit(`{"name":`)
	r.Name = d.Str()
	r.Node = decodeNode(&d)
	return r, d.End()
}

func appendFetchResp(b []byte, r fetchResp) []byte {
	b = append(b, `{"size":`...)
	b = strconv.AppendInt(b, r.Size, 10)
	b = append(b, `,"source":`...)
	b = canonjson.AppendString(b, r.Source)
	b = append(b, `,"totalMs":`...)
	b = strconv.AppendInt(b, r.TotalMS, 10)
	b = append(b, `,"sparse":`...)
	b = strconv.AppendBool(b, r.Sparse)
	return append(b, '}')
}

func decodeFetchResp(s string) (fetchResp, error) {
	d := canonjson.NewDecoder(s)
	var r fetchResp
	d.Lit(`{"size":`)
	r.Size = d.Int(64)
	d.Lit(`,"source":`)
	r.Source = d.Str()
	d.Lit(`,"totalMs":`)
	r.TotalMS = d.Int(64)
	d.Lit(`,"sparse":`)
	r.Sparse = d.Bool()
	d.Lit(`}`)
	return r, d.End()
}

func appendProcessReq(b []byte, r processReq) []byte {
	b = append(b, `{"name":`...)
	b = canonjson.AppendString(b, r.Name)
	b = append(b, `,"service":`...)
	b = canonjson.AppendString(b, r.Service)
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, uint64(r.ID), 10)
	b = appendNode(b, r.Node)
	return append(b, '}')
}

func decodeProcessReq(s string) (processReq, error) {
	d := canonjson.NewDecoder(s)
	var r processReq
	d.Lit(`{"name":`)
	r.Name = d.Str()
	d.Lit(`,"service":`)
	r.Service = d.Str()
	d.Lit(`,"id":`)
	r.ID = uint32(d.Uint(32))
	r.Node = decodeNode(&d)
	return r, d.End()
}

func appendProcessResp(b []byte, r processResp) []byte {
	b = append(b, `{"target":`...)
	b = canonjson.AppendString(b, r.Target)
	b = append(b, `,"mode":`...)
	b = canonjson.AppendString(b, r.Mode)
	b = append(b, `,"outputSize":`...)
	b = strconv.AppendInt(b, r.OutputSize, 10)
	b = append(b, `,"detections":`...)
	b = strconv.AppendInt(b, int64(r.Detections), 10)
	b = append(b, `,"matchId":`...)
	b = strconv.AppendInt(b, int64(r.MatchID), 10)
	b = append(b, `,"totalMs":`...)
	b = strconv.AppendInt(b, r.TotalMS, 10)
	return append(b, '}')
}

func decodeProcessResp(s string) (processResp, error) {
	d := canonjson.NewDecoder(s)
	var r processResp
	d.Lit(`{"target":`)
	r.Target = d.Str()
	d.Lit(`,"mode":`)
	r.Mode = d.Str()
	d.Lit(`,"outputSize":`)
	r.OutputSize = d.Int(64)
	d.Lit(`,"detections":`)
	r.Detections = int(d.Int(strconv.IntSize))
	d.Lit(`,"matchId":`)
	r.MatchID = int(d.Int(strconv.IntSize))
	d.Lit(`,"totalMs":`)
	r.TotalMS = d.Int(64)
	d.Lit(`}`)
	return r, d.End()
}

// appendNode appends a request's optional last field, the home node, and
// decodeNode reads it and the closing brace.
func appendNode(b []byte, node string) []byte {
	if node == "" {
		return b
	}
	b = append(b, `,"node":`...)
	return canonjson.AppendString(b, node)
}

func decodeNode(d *canonjson.Decoder) string {
	var node string
	if d.Opt(`,"node":`) {
		node = d.Str()
	}
	d.Lit(`}`)
	return node
}

func appendList(b []byte, r listResp) []byte {
	b = append(b, `{"nodes":`...)
	b = appendStringList(b, r.Nodes)
	b = append(b, `,"objects":`...)
	b = appendStringList(b, r.Objects)
	return append(b, '}')
}

func decodeList(s string) (listResp, error) {
	d := canonjson.NewDecoder(s)
	var r listResp
	d.Lit(`{"nodes":`)
	r.Nodes = decodeStringList(&d)
	d.Lit(`,"objects":`)
	r.Objects = decodeStringList(&d)
	d.Lit(`}`)
	return r, d.End()
}

// appendStringList writes a list without omitempty: null when nil, [] when
// empty.
func appendStringList(b []byte, list []string) []byte {
	if list == nil {
		return append(b, `null`...)
	}
	return canonjson.AppendStrings(b, list)
}

func decodeStringList(d *canonjson.Decoder) []string {
	switch {
	case d.Opt(`null`):
		return nil
	case d.Opt(`[]`):
		return []string{}
	}
	return d.Strs()
}

// A stats reply is {"nodes":[...]}, one object per node: addr, the six
// base counters, cpuLoad and memFreeMb, then every other counter that is
// non-zero. The counters are core.OpStats fields; OverlapSaved travels
// in whole milliseconds.

// counter is one OpStats field on the wire.
type counter struct {
	key   string // the key with its leading comma and trailing colon
	field func(*core.OpStats) *int64
	ms    bool // the field is a time.Duration carried in milliseconds
}

var baseCounters = [...]counter{
	{key: `,"stores":`, field: func(o *core.OpStats) *int64 { return &o.Stores }},
	{key: `,"fetches":`, field: func(o *core.OpStats) *int64 { return &o.Fetches }},
	{key: `,"processes":`, field: func(o *core.OpStats) *int64 { return &o.Processes }},
	{key: `,"deletes":`, field: func(o *core.OpStats) *int64 { return &o.Deletes }},
	{key: `,"bytesStored":`, field: func(o *core.OpStats) *int64 { return &o.BytesStored }},
	{key: `,"bytesFetched":`, field: func(o *core.OpStats) *int64 { return &o.BytesFetched }},
}

// optCounters are omitted while zero.
var optCounters = [...]counter{
	{key: `,"cacheHits":`, field: func(o *core.OpStats) *int64 { return &o.CacheHits }},
	{key: `,"cacheMisses":`, field: func(o *core.OpStats) *int64 { return &o.CacheMisses }},
	{key: `,"coalescedFetches":`, field: func(o *core.OpStats) *int64 { return &o.CoalescedFetches }},
	{key: `,"asyncPlaceDrops":`, field: func(o *core.OpStats) *int64 { return &o.AsyncPlaceDrops }},
	{key: `,"shardsExecuted":`, field: func(o *core.OpStats) *int64 { return &o.ShardsExecuted }},
	{key: `,"overlapSavedMs":`, field: func(o *core.OpStats) *int64 { return (*int64)(&o.OverlapSaved) }, ms: true},
	{key: `,"specLaunches":`, field: func(o *core.OpStats) *int64 { return &o.SpecLaunches }},
	{key: `,"specWins":`, field: func(o *core.OpStats) *int64 { return &o.SpecWins }},
	{key: `,"specCancels":`, field: func(o *core.OpStats) *int64 { return &o.SpecCancels }},
	{key: `,"fetchRetries":`, field: func(o *core.OpStats) *int64 { return &o.FetchRetries }},
	{key: `,"objectsRepaired":`, field: func(o *core.OpStats) *int64 { return &o.ObjectsRepaired }},
	{key: `,"replicasRestored":`, field: func(o *core.OpStats) *int64 { return &o.ReplicasRestored }},
	{key: `,"cloudProbes":`, field: func(o *core.OpStats) *int64 { return &o.CloudProbes }},
	{key: `,"federatedProbes":`, field: func(o *core.OpStats) *int64 { return &o.FederatedProbes }},
	{key: `,"shardsPlaced":`, field: func(o *core.OpStats) *int64 { return &o.ShardsPlaced }},
	{key: `,"shardsRestored":`, field: func(o *core.OpStats) *int64 { return &o.ShardsRestored }},
	{key: `,"shardReconstructs":`, field: func(o *core.OpStats) *int64 { return &o.ShardReconstructs }},
	{key: `,"kvHops":`, field: func(o *core.OpStats) *int64 { return &o.KVHops }},
	{key: `,"superPeerHops":`, field: func(o *core.OpStats) *int64 { return &o.SuperPeerHops }},
	{key: `,"arenaBytes":`, field: func(o *core.OpStats) *int64 { return &o.ArenaBytes }},
}

// Counters yields every counter beyond the six base ones, the counters a
// stats reply carries only while non-zero: each under its wire name, with
// its value as the wire carries it, in the wire's order.
func (n *NodeStats) Counters() iter.Seq2[string, int64] {
	return func(yield func(string, int64) bool) {
		for i := range optCounters {
			c := &optCounters[i]
			if !yield(c.key[2:len(c.key)-2], c.wireValue(&n.OpStats)) {
				return
			}
		}
	}
}

// wireValue is the counter's value as the wire carries it.
func (c *counter) wireValue(o *core.OpStats) int64 {
	v := *c.field(o)
	if c.ms {
		v = time.Duration(v).Milliseconds()
	}
	return v
}

func (c *counter) set(o *core.OpStats, v int64) {
	if c.ms {
		v = int64(time.Duration(v) * time.Millisecond)
	}
	*c.field(o) = v
}

// appendStats writes a stats reply; it fails, as json.Marshal does, on a
// CPU load that is NaN or infinite.
func appendStats(b []byte, nodes []NodeStats) ([]byte, error) {
	b = append(b, `{"nodes":`...)
	if nodes == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i := range nodes {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendNodeStats(b, &nodes[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func appendNodeStats(b []byte, n *NodeStats) ([]byte, error) {
	b = append(b, `{"addr":`...)
	b = canonjson.AppendString(b, n.Addr)
	for i := range baseCounters {
		b = append(b, baseCounters[i].key...)
		b = strconv.AppendInt(b, baseCounters[i].wireValue(&n.OpStats), 10)
	}
	b = append(b, `,"cpuLoad":`...)
	b, err := canonjson.AppendFloat(b, n.CPULoad)
	if err != nil {
		return b, err
	}
	b = append(b, `,"memFreeMb":`...)
	b = strconv.AppendInt(b, n.MemFreeMB, 10)
	for i := range optCounters {
		if v := optCounters[i].wireValue(&n.OpStats); v != 0 {
			b = append(b, optCounters[i].key...)
			b = strconv.AppendInt(b, v, 10)
		}
	}
	return append(b, '}'), nil
}

func decodeStats(s string) ([]NodeStats, error) {
	d := canonjson.NewDecoder(s)
	var nodes []NodeStats
	d.Lit(`{"nodes":`)
	switch {
	case d.Opt(`null`):
	case d.Opt(`[]`):
		nodes = []NodeStats{}
	default:
		nodes = make([]NodeStats, 0, d.Open())
		for i := 0; d.Next(i); i++ {
			nodes = append(nodes, NodeStats{})
			decodeNodeStats(&d, &nodes[i])
		}
	}
	d.Lit(`}`)
	if err := d.End(); err != nil {
		return nil, err
	}
	return nodes, nil
}

// decodeNodeStats reads one node into n, which is in the result slice:
// the counters are set through func values, so a local would move to the
// heap.
func decodeNodeStats(d *canonjson.Decoder, n *NodeStats) {
	d.Lit(`{"addr":`)
	n.Addr = d.Str()
	for i := range baseCounters {
		d.Lit(baseCounters[i].key)
		baseCounters[i].set(&n.OpStats, d.Int(64))
	}
	d.Lit(`,"cpuLoad":`)
	n.CPULoad = d.Float()
	d.Lit(`,"memFreeMb":`)
	n.MemFreeMB = d.Int(64)
	for i := range optCounters {
		if d.Opt(optCounters[i].key) {
			optCounters[i].set(&n.OpStats, d.Int(64))
		}
	}
	d.Lit(`}`)
}
