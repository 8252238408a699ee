package core

import (
	"fmt"
	"strconv"
	"strings"

	"cloud4home/internal/canonjson"
	"cloud4home/internal/ids"
	"cloud4home/internal/objstore"
)

// ObjectMeta is the serialized value stored in the key-value store for
// each object: "object location and metadata, such as tags, access
// information, etc. The location field can map to a node in the local
// home cloud or to a remote cloud" (§III-A).
type ObjectMeta struct {
	Name string   `json:"name"`
	Type string   `json:"type,omitempty"`
	Size int64    `json:"size"`
	Tags []string `json:"tags,omitempty"`
	// Location is the holder's address for home-cloud objects, or the
	// object's S3-style URL for remote-cloud objects ("URL location of
	// object in users S3 storage bucket is stored as value", §III-C).
	Location string `json:"location"`
	// Bin records which bin holds the object at a home node.
	Bin string `json:"bin,omitempty"`
	// Replicas lists home nodes holding extra best-effort payload copies
	// beyond Location (the concurrent data plane's striped reads pull from
	// all of them in parallel). Absent for paper-baseline placements.
	Replicas []string `json:"replicas,omitempty"`
	// Owner is the principal that created the object ("" = open access,
	// the base prototype's behaviour).
	Owner string `json:"owner,omitempty"`
	// ACL lists additional principals allowed to access the object
	// ("*" = everyone). Only meaningful when Owner is set.
	ACL []string `json:"acl,omitempty"`
	// Backend names the cloud backend holding a remote object when the
	// home federates several; empty means the default attached cloud
	// (and is always empty with a nil Config.Backend).
	Backend string `json:"backend,omitempty"`
	// ErasureK/ErasureN record k-of-n shard coding when the home tier's
	// redundancy is coded shards instead of whole-object Replicas; both
	// zero for replicated or unprotected objects.
	ErasureK int `json:"erasure_k,omitempty"`
	ErasureN int `json:"erasure_n,omitempty"`
	// Shards lists the coded-shard holders: each entry binds a shard
	// index to the home node storing it. Any ErasureK of them rebuild
	// the payload. The primary (Location) holds the whole object and is
	// never a shard holder.
	Shards []ShardRef `json:"shards,omitempty"`
}

// ShardRef is one coded shard's placement: its index in the k-of-n code
// and the address of the home node holding it.
type ShardRef struct {
	Index int    `json:"i"`
	Addr  string `json:"addr"`
}

// Key returns the object's DHT key.
func (m ObjectMeta) Key() ids.ID { return ids.HashString(m.Name) }

// InCloud reports whether the object lives in the remote cloud.
func (m ObjectMeta) InCloud() bool { return strings.HasPrefix(m.Location, "s3://") }

// Marshal serializes the record. The bytes are exactly json.Marshal's
// (fields in declaration order, omitempty honoured, HTML-safe escapes),
// written without reflection into one buffer sized up front. The error
// is always nil.
func (m ObjectMeta) Marshal() ([]byte, error) {
	return m.appendTo(make([]byte, 0, m.encodedLen())), nil
}

// appendTo appends Marshal's bytes to b and returns the extended buffer,
// so a writer whose store copies the record can encode it on its stack.
func (m *ObjectMeta) appendTo(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = canonjson.AppendString(b, m.Name)
	if m.Type != "" {
		b = append(b, `,"type":`...)
		b = canonjson.AppendString(b, m.Type)
	}
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, m.Size, 10)
	if len(m.Tags) > 0 {
		b = append(b, `,"tags":`...)
		b = canonjson.AppendStrings(b, m.Tags)
	}
	b = append(b, `,"location":`...)
	b = canonjson.AppendString(b, m.Location)
	if m.Bin != "" {
		b = append(b, `,"bin":`...)
		b = canonjson.AppendString(b, m.Bin)
	}
	if len(m.Replicas) > 0 {
		b = append(b, `,"replicas":`...)
		b = canonjson.AppendStrings(b, m.Replicas)
	}
	if m.Owner != "" {
		b = append(b, `,"owner":`...)
		b = canonjson.AppendString(b, m.Owner)
	}
	if len(m.ACL) > 0 {
		b = append(b, `,"acl":`...)
		b = canonjson.AppendStrings(b, m.ACL)
	}
	if m.Backend != "" {
		b = append(b, `,"backend":`...)
		b = canonjson.AppendString(b, m.Backend)
	}
	if m.ErasureK != 0 {
		b = append(b, `,"erasure_k":`...)
		b = strconv.AppendInt(b, int64(m.ErasureK), 10)
	}
	if m.ErasureN != 0 {
		b = append(b, `,"erasure_n":`...)
		b = strconv.AppendInt(b, int64(m.ErasureN), 10)
	}
	if len(m.Shards) > 0 {
		b = append(b, `,"shards":[`...)
		for i, s := range m.Shards {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"i":`...)
			b = strconv.AppendInt(b, int64(s.Index), 10)
			b = append(b, `,"addr":`...)
			b = canonjson.AppendString(b, s.Addr)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// encodedLen is Marshal's output length when no string needs escaping;
// an escaped string only grows the buffer once more.
func (m ObjectMeta) encodedLen() int {
	n := len(`{"name":,"size":,"location":}`) + quotedLen(m.Name) + intLen(m.Size) + quotedLen(m.Location)
	if m.Type != "" {
		n += len(`,"type":`) + quotedLen(m.Type)
	}
	if len(m.Tags) > 0 {
		n += len(`,"tags":`) + listLen(m.Tags)
	}
	if m.Bin != "" {
		n += len(`,"bin":`) + quotedLen(m.Bin)
	}
	if len(m.Replicas) > 0 {
		n += len(`,"replicas":`) + listLen(m.Replicas)
	}
	if m.Owner != "" {
		n += len(`,"owner":`) + quotedLen(m.Owner)
	}
	if len(m.ACL) > 0 {
		n += len(`,"acl":`) + listLen(m.ACL)
	}
	if m.Backend != "" {
		n += len(`,"backend":`) + quotedLen(m.Backend)
	}
	if m.ErasureK != 0 {
		n += len(`,"erasure_k":`) + intLen(int64(m.ErasureK))
	}
	if m.ErasureN != 0 {
		n += len(`,"erasure_n":`) + intLen(int64(m.ErasureN))
	}
	if len(m.Shards) > 0 {
		n += len(`,"shards":[]`) + len(m.Shards) - 1
		for _, s := range m.Shards {
			n += len(`{"i":,"addr":}`) + intLen(int64(s.Index)) + quotedLen(s.Addr)
		}
	}
	return n
}

func quotedLen(s string) int { return len(s) + 2 }

// listLen is the length of a JSON array of plain strings.
func listLen(list []string) int {
	n := len(`[]`) + len(list) - 1
	for _, s := range list {
		n += quotedLen(s)
	}
	return n
}

// intLen is the length of v in decimal, with its sign.
func intLen(v int64) int {
	n := 1
	if v < 0 {
		n++
	}
	for v /= 10; v != 0; v /= 10 {
		n++
	}
	return n
}

// UnmarshalObjectMeta parses a stored record. It accepts only the shape
// Marshal writes: keys in declaration order, each at most once, the
// non-omitempty ones present; no whitespace, null, empty list, fraction,
// exponent or leading zero; nothing after the closing brace. Whatever it
// accepts, json.Unmarshal accepts with an equal result.
//
// The record is copied once into a string, so the caller may reuse data.
// Plain strings in the result are substrings of that copy; a string
// literal with an escape, a control byte or a non-ASCII byte is decoded
// on its own by encoding/json.
func UnmarshalObjectMeta(data []byte) (ObjectMeta, error) {
	d := canonjson.NewDecoder(string(data))
	var m ObjectMeta
	d.Lit(`{"name":`)
	m.Name = d.Str()
	if d.Opt(`,"type":`) {
		m.Type = d.Str()
	}
	d.Lit(`,"size":`)
	m.Size = d.Int(64)
	if d.Opt(`,"tags":`) {
		m.Tags = d.Strs()
	}
	d.Lit(`,"location":`)
	m.Location = d.Str()
	if d.Opt(`,"bin":`) {
		m.Bin = d.Str()
	}
	if d.Opt(`,"replicas":`) {
		m.Replicas = d.Strs()
	}
	if d.Opt(`,"owner":`) {
		m.Owner = d.Str()
	}
	if d.Opt(`,"acl":`) {
		m.ACL = d.Strs()
	}
	if d.Opt(`,"backend":`) {
		m.Backend = d.Str()
	}
	if d.Opt(`,"erasure_k":`) {
		m.ErasureK = int(d.Int(strconv.IntSize))
	}
	if d.Opt(`,"erasure_n":`) {
		m.ErasureN = int(d.Int(strconv.IntSize))
	}
	if d.Opt(`,"shards":`) {
		m.Shards = shards(&d)
	}
	d.Lit(`}`)
	if err := d.End(); err != nil {
		return ObjectMeta{}, fmt.Errorf("core: decode object meta: %w", err)
	}
	return m, nil
}

// shard reads one shard placement.
func shard(d *canonjson.Decoder) ShardRef {
	var s ShardRef
	d.Lit(`{"i":`)
	s.Index = int(d.Int(strconv.IntSize))
	d.Lit(`,"addr":`)
	s.Addr = d.Str()
	d.Lit(`}`)
	return s
}

// shards reads a non-empty array of shard placements.
func shards(d *canonjson.Decoder) []ShardRef {
	list := make([]ShardRef, 0, d.Open())
	for i := 0; d.Next(i); i++ {
		list = append(list, shard(d))
	}
	return list
}

// metaFromObject builds the KV record for an object placed at location.
func metaFromObject(o objstore.Object, location string, bin objstore.Bin) ObjectMeta {
	m := ObjectMeta{
		Name:     o.Name,
		Type:     o.Type,
		Size:     o.Size,
		Tags:     o.Tags,
		Owner:    o.Owner,
		Location: location,
	}
	if bin != 0 {
		m.Bin = bin.String()
	}
	return m
}

// CloudServiceAddr is the candidate-address prefix that marks a service
// hosted on a remote-cloud instance, e.g. "cloud:xl-1".
const CloudServiceAddr = "cloud:"

// cloudInstanceName extracts the instance name from a cloud candidate
// address.
func cloudInstanceName(addr string) (string, bool) {
	if !strings.HasPrefix(addr, CloudServiceAddr) {
		return "", false
	}
	return strings.TrimPrefix(addr, CloudServiceAddr), true
}
