package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// jsonNodeStats is a stats reply's node as encoding/json writes it: the
// oracle the hand-written stats codec is held to.
type jsonNodeStats struct {
	Addr              string  `json:"addr"`
	Stores            int64   `json:"stores"`
	Fetches           int64   `json:"fetches"`
	Processes         int64   `json:"processes"`
	Deletes           int64   `json:"deletes"`
	BytesStored       int64   `json:"bytesStored"`
	BytesFetched      int64   `json:"bytesFetched"`
	CPULoad           float64 `json:"cpuLoad"`
	MemFreeMB         int64   `json:"memFreeMb"`
	CacheHits         int64   `json:"cacheHits,omitempty"`
	CacheMisses       int64   `json:"cacheMisses,omitempty"`
	CoalescedFetches  int64   `json:"coalescedFetches,omitempty"`
	AsyncPlaceDrops   int64   `json:"asyncPlaceDrops,omitempty"`
	ShardsExecuted    int64   `json:"shardsExecuted,omitempty"`
	OverlapSavedMS    int64   `json:"overlapSavedMs,omitempty"`
	SpecLaunches      int64   `json:"specLaunches,omitempty"`
	SpecWins          int64   `json:"specWins,omitempty"`
	SpecCancels       int64   `json:"specCancels,omitempty"`
	FetchRetries      int64   `json:"fetchRetries,omitempty"`
	ObjectsRepaired   int64   `json:"objectsRepaired,omitempty"`
	ReplicasRestored  int64   `json:"replicasRestored,omitempty"`
	CloudProbes       int64   `json:"cloudProbes,omitempty"`
	FederatedProbes   int64   `json:"federatedProbes,omitempty"`
	ShardsPlaced      int64   `json:"shardsPlaced,omitempty"`
	ShardsRestored    int64   `json:"shardsRestored,omitempty"`
	ShardReconstructs int64   `json:"shardReconstructs,omitempty"`
	KVHops            int64   `json:"kvHops,omitempty"`
	SuperPeerHops     int64   `json:"superPeerHops,omitempty"`
	ArenaBytes        int64   `json:"arenaBytes,omitempty"`
}

type jsonStats struct {
	Nodes []jsonNodeStats `json:"nodes"`
}

// toJSONStats converts field by name; OverlapSaved goes in whole
// milliseconds, as the server sends it.
func toJSONStats(nodes []NodeStats) jsonStats {
	if nodes == nil {
		return jsonStats{}
	}
	out := jsonStats{Nodes: make([]jsonNodeStats, len(nodes))}
	for i := range nodes {
		src, dst := reflect.ValueOf(nodes[i]), reflect.ValueOf(&out.Nodes[i]).Elem()
		for j := 0; j < dst.NumField(); j++ {
			name := dst.Type().Field(j).Name
			if name == "OverlapSavedMS" {
				dst.Field(j).SetInt(nodes[i].OverlapSaved.Milliseconds())
				continue
			}
			dst.Field(j).Set(src.FieldByName(name))
		}
	}
	return out
}

// fromJSONStats is toJSONStats backwards, with the client's conversion of
// milliseconds to a Duration.
func fromJSONStats(s jsonStats) []NodeStats {
	if s.Nodes == nil {
		return nil
	}
	out := make([]NodeStats, len(s.Nodes))
	for i := range s.Nodes {
		src, dst := reflect.ValueOf(s.Nodes[i]), reflect.ValueOf(&out[i]).Elem()
		for j := 0; j < src.NumField(); j++ {
			name := src.Type().Field(j).Name
			if name == "OverlapSavedMS" {
				out[i].OverlapSaved = time.Duration(s.Nodes[i].OverlapSavedMS) * time.Millisecond
				continue
			}
			dst.FieldByName(name).Set(src.Field(j))
		}
	}
	return out
}

// TestStatsCarryEveryCounter sets every OpStats field to a distinct
// non-zero value by reflection, so a counter added to core without a
// place on the wire fails here: the stats codec must write json.Marshal's
// bytes for the oracle and read every counter back.
func TestStatsCarryEveryCounter(t *testing.T) {
	n := NodeStats{Addr: "dev-a:9000", CPULoad: 0.25, MemFreeMB: 512}
	ops := reflect.ValueOf(&n.OpStats).Elem()
	for i := 0; i < ops.NumField(); i++ {
		if ops.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("OpStats.%s is a %s, which the wire cannot carry", ops.Type().Field(i).Name, ops.Field(i).Kind())
		}
		ops.Field(i).SetInt(int64(i+1) * int64(time.Millisecond))
		name := ops.Type().Field(i).Name
		if _, ok := reflect.TypeOf(jsonNodeStats{}).FieldByName(name); !ok && name != "OverlapSaved" {
			t.Fatalf("OpStats.%s has no field in the wire's stats oracle", name)
		}
	}
	nodes := []NodeStats{n, {Addr: "dev-b:9000"}}
	requireStatsMatchJSON(t, nodes)
	body, err := appendStats(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := decodeStats(string(body)); err != nil || !reflect.DeepEqual(back, nodes) {
		t.Fatalf("stats round trip: %v\n got %+v\nwant %+v", err, back, nodes)
	}

	// Every field holds a distinct value, so the base counters and what
	// Counters yields name each OpStats counter exactly once, each as the
	// reply carries it.
	seen := map[int64]string{}
	for _, c := range baseCounters {
		seen[c.wireValue(&n.OpStats)] = c.key
	}
	for name, v := range n.Counters() {
		if prev, ok := seen[v]; ok {
			t.Fatalf("Counters yields %s=%d, the value of %s", name, v, prev)
		}
		seen[v] = name
		if pair := fmt.Sprintf(`,"%s":%d`, name, v); !bytes.Contains(body, []byte(pair)) {
			t.Fatalf("Counters yields %s, which the reply %s lacks", pair, body)
		}
	}
	if len(seen) != ops.NumField() {
		t.Fatalf("base counters and Counters name %d counters, OpStats has %d", len(seen), ops.NumField())
	}
}

// requireStatsMatchJSON holds the stats codec to encoding/json: it writes
// json.Marshal's bytes for nodes (whose OverlapSaved must be whole
// milliseconds) and reads them back as json.Unmarshal does.
func requireStatsMatchJSON(t *testing.T, nodes []NodeStats) {
	t.Helper()
	got, err := appendStats(nil, nodes)
	want, werr := json.Marshal(toJSONStats(nodes))
	if (err == nil) != (werr == nil) {
		t.Fatalf("appendStats: %v, json.Marshal: %v", err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendStats\n got %s\nwant %s", got, want)
	}
	if _, err := decodeStats(string(got)); err != nil {
		t.Fatalf("decodeStats rejected appendStats' output %s: %v", got, err)
	}
	requireDecoderAgreesWithJSON(t, got)
}

// codec is one body type: its encoder and its decoder, and a fresh value
// of its type for json.Unmarshal.
type codec struct {
	name   string
	encode func(v any) []byte
	decode func(s string) (any, error)
	zero   func() any
}

func codecOf[T any](name string, enc func([]byte, T) []byte, dec func(string) (T, error)) codec {
	return codec{
		name:   name,
		encode: func(v any) []byte { return enc(nil, v.(T)) },
		decode: func(s string) (any, error) { v, err := dec(s); return v, err },
		zero:   func() any { return new(T) },
	}
}

var codecs = []codec{
	codecOf("storeReq", appendStoreReq, decodeStoreReq),
	codecOf("storeResp", appendStoreResp, decodeStoreResp),
	codecOf("fetchReq", appendFetchReq, decodeFetchReq),
	codecOf("fetchResp", appendFetchResp, decodeFetchResp),
	codecOf("processReq", appendProcessReq, decodeProcessReq),
	codecOf("processResp", appendProcessResp, decodeProcessResp),
	codecOf("listResp", appendList, decodeList),
}

// requireCodecMatchesJSON: the encoder writes json.Marshal's bytes for v,
// and the decoder reads them back as json.Unmarshal does (invalid UTF-8
// comes back as U+FFFD from both).
func requireCodecMatchesJSON(t *testing.T, c codec, v any) {
	t.Helper()
	got := c.encode(v)
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s encoder on %#v\n got %s\nwant %s", c.name, v, got, want)
	}
	if _, err := c.decode(string(got)); err != nil {
		t.Fatalf("%s decoder rejected %s: %v", c.name, got, err)
	}
	requireDecoderAgreesWithJSON(t, got)
}

// requireDecoderAgreesWithJSON: whatever a decoder accepts, json.Unmarshal
// accepts with an equal value.
func requireDecoderAgreesWithJSON(t *testing.T, body []byte) {
	t.Helper()
	for _, c := range codecs {
		got, err := c.decode(string(body))
		if err != nil {
			continue
		}
		want := c.zero()
		if err := json.Unmarshal(body, want); err != nil {
			t.Fatalf("%s decoder accepted %q, which json.Unmarshal rejects: %v", c.name, body, err)
		}
		if w := reflect.ValueOf(want).Elem().Interface(); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s decode of %q\n got %#v\nwant %#v", c.name, body, got, w)
		}
	}
	if got, err := decodeStats(string(body)); err == nil {
		var want jsonStats
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("stats decoder accepted %q, which json.Unmarshal rejects: %v", body, err)
		}
		if w := fromJSONStats(want); !reflect.DeepEqual(got, w) {
			t.Fatalf("stats decode of %q\n got %+v\nwant %+v", body, got, w)
		}
	}
}

// FuzzCommandBodies holds every request and reply body to encoding/json
// both ways: bodies built from the fuzzed strings and numbers encode to
// json.Marshal's bytes and decode back to themselves, and any bytes a
// decoder accepts, json.Unmarshal accepts with an equal value. shape's
// bits pick the optional parts: tags, payload, node, list forms and the
// number of stats nodes.
func FuzzCommandBodies(f *testing.F) {
	f.Add([]byte(`{"name":"d/1/0.bin","type":"bin","size":16384,"hasPayload":true,"node":"netbook-1:9000"}`),
		"cam<0>& ", "n\xff", int64(-1), uint32(1<<31), uint8(0xff), 0.5)
	f.Fuzz(func(t *testing.T, body []byte, a, b string, n int64, id uint32, shape uint8, load float64) {
		requireDecoderAgreesWithJSON(t, body)

		strs := []string{a, b, a + b}
		list := func(bits uint8) []string {
			switch bits & 3 {
			case 0:
				return nil
			case 1:
				return []string{}
			}
			return strs[:bits&3]
		}
		node := ""
		if shape&4 != 0 {
			node = b
		}
		tags := list(shape >> 3)
		if len(tags) == 0 {
			tags = nil // omitempty: an empty list reads back as none
		}
		for _, v := range []struct {
			c codec
			v any
		}{
			{codecs[0], storeReq{Name: a, Type: b, Tags: tags, Size: n, HasPayload: shape&1 != 0, Node: node}},
			{codecs[0], storeReq{Name: a, Size: -n}},
			{codecs[1], storeResp{Location: a, TotalMS: n}},
			{codecs[2], fetchReq{Name: a, Node: node}},
			{codecs[3], fetchResp{Size: n, Source: a, TotalMS: -n, Sparse: shape&2 != 0}},
			{codecs[4], processReq{Name: a, Service: b, ID: id, Node: node}},
			{codecs[5], processResp{Target: a, Mode: b, OutputSize: n, Detections: int(id), MatchID: -int(id), TotalMS: n}},
			{codecs[6], listResp{Nodes: list(shape), Objects: list(shape >> 2)}},
		} {
			requireCodecMatchesJSON(t, v.c, v.v)
		}

		var nodes []NodeStats
		if shape&0x20 != 0 {
			nodes = []NodeStats{}
		}
		for i := 0; i < int(shape>>6); i++ {
			ns := NodeStats{Addr: strs[i], CPULoad: load * float64(i+1), MemFreeMB: n}
			ops := reflect.ValueOf(&ns.OpStats).Elem()
			for j := 0; j < ops.NumField(); j++ {
				if (shape>>(j%8))&1 != 0 {
					ops.Field(j).SetInt(n >> j)
				}
			}
			ns.OverlapSaved = ns.OverlapSaved.Truncate(time.Millisecond)
			nodes = append(nodes, ns)
		}
		requireStatsMatchJSON(t, nodes)
	})
}

// TestBodiesMatchJSON covers the encoders' edge cases: strings that
// encoding/json escapes, nil and empty lists, and the float forms.
func TestBodiesMatchJSON(t *testing.T) {
	odd := "a\"b\\c<d>&e \xff\n"
	requireCodecMatchesJSON(t, codecs[0], storeReq{Name: odd, Type: odd, Tags: []string{odd, ""}, Size: math.MinInt64, Node: odd})
	requireCodecMatchesJSON(t, codecs[4], processReq{Name: "x", Service: "fdet", ID: math.MaxUint32})
	requireCodecMatchesJSON(t, codecs[6], listResp{})
	requireCodecMatchesJSON(t, codecs[6], listResp{Nodes: []string{}, Objects: []string{odd}})
	for _, load := range []float64{0, math.Copysign(0, -1), 1, 0.5, 1e-7, 1e-6, 1e20, 1e21, -1e-7, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		requireStatsMatchJSON(t, []NodeStats{{Addr: odd, CPULoad: load}})
	}
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendStats(nil, []NodeStats{{CPULoad: load}}); err == nil {
			t.Errorf("CPU load %v encoded", load)
		}
	}
	requireStatsMatchJSON(t, nil)
	requireStatsMatchJSON(t, []NodeStats{})
	if want, _ := json.Marshal(struct{}{}); !bytes.Equal(emptyBody, want) {
		t.Fatalf("empty body %s, want %s", emptyBody, want)
	}
}

// TestDecodersRefuseNonCanonicalBodies pins the decoders' strictness: a
// body encoding/json would read the same is refused unless it is in
// json.Marshal's shape. The daemon's own client never sends one.
func TestDecodersRefuseNonCanonicalBodies(t *testing.T) {
	for _, body := range []string{
		`{"name": "a.bin","size":1,"hasPayload":false}`,
		`{"size":1,"name":"a.bin","hasPayload":false}`,
		`{"name":"a.bin","size":1,"hasPayload":false} `,
		`{"name":"a.bin","size":01,"hasPayload":false}`,
		`{"name":"a.bin","size":1,"hasPayload":0}`,
		`{"name":"a.bin","size":1,"hasPayload":false,"node":null}`,
		`{"name":"a.bin","service":"fdet","id":-1}`,
		`{"name":"a.bin","service":"fdet","id":4294967296}`,
		`{"nodes":[{"addr":"a","stores":0,"fetches":0,"processes":0,"deletes":0,"bytesStored":0,"bytesFetched":0,"cpuLoad":0.50,"memFreeMb":0}]}`,
		`{"nodes":[{"addr":"a","stores":0,"fetches":0,"processes":0,"deletes":0,"bytesStored":0,"bytesFetched":0,"cpuLoad":1E-7,"memFreeMb":0}]}`,
	} {
		for _, c := range codecs {
			if v, err := c.decode(body); err == nil {
				t.Errorf("%s decoder accepted %s: %#v", c.name, body, v)
			}
		}
		if v, err := decodeStats(body); err == nil {
			t.Errorf("stats decoder accepted %s: %+v", body, v)
		}
	}
}
