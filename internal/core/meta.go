package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

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
	b = appendJSONString(b, m.Name)
	if m.Type != "" {
		b = append(b, `,"type":`...)
		b = appendJSONString(b, m.Type)
	}
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, m.Size, 10)
	if len(m.Tags) > 0 {
		b = append(b, `,"tags":`...)
		b = appendJSONStrings(b, m.Tags)
	}
	b = append(b, `,"location":`...)
	b = appendJSONString(b, m.Location)
	if m.Bin != "" {
		b = append(b, `,"bin":`...)
		b = appendJSONString(b, m.Bin)
	}
	if len(m.Replicas) > 0 {
		b = append(b, `,"replicas":`...)
		b = appendJSONStrings(b, m.Replicas)
	}
	if m.Owner != "" {
		b = append(b, `,"owner":`...)
		b = appendJSONString(b, m.Owner)
	}
	if len(m.ACL) > 0 {
		b = append(b, `,"acl":`...)
		b = appendJSONStrings(b, m.ACL)
	}
	if m.Backend != "" {
		b = append(b, `,"backend":`...)
		b = appendJSONString(b, m.Backend)
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
			b = appendJSONString(b, s.Addr)
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

// appendJSONString appends s as a JSON string literal. A plain string is
// copied between quotes; one json.Marshal would escape (a control byte,
// a quote, a backslash, '<', '>', '&', or any non-ASCII byte, which
// covers U+2028, U+2029 and invalid UTF-8) is left to encoding/json, so
// the bytes match json.Marshal's in every case.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= 0x80 {
			q, err := json.Marshal(s)
			if err != nil {
				panic("core: json.Marshal of a string: " + err.Error()) // encoding/json never fails on a string
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendJSONStrings(b []byte, list []string) []byte {
	b = append(b, '[')
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
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
	d := metaDecoder{s: string(data)}
	var m ObjectMeta
	d.lit(`{"name":`)
	m.Name = d.str()
	if d.opt(`,"type":`) {
		m.Type = d.str()
	}
	d.lit(`,"size":`)
	m.Size = d.integer(64)
	if d.opt(`,"tags":`) {
		m.Tags = d.strs()
	}
	d.lit(`,"location":`)
	m.Location = d.str()
	if d.opt(`,"bin":`) {
		m.Bin = d.str()
	}
	if d.opt(`,"replicas":`) {
		m.Replicas = d.strs()
	}
	if d.opt(`,"owner":`) {
		m.Owner = d.str()
	}
	if d.opt(`,"acl":`) {
		m.ACL = d.strs()
	}
	if d.opt(`,"backend":`) {
		m.Backend = d.str()
	}
	if d.opt(`,"erasure_k":`) {
		m.ErasureK = int(d.integer(strconv.IntSize))
	}
	if d.opt(`,"erasure_n":`) {
		m.ErasureN = int(d.integer(strconv.IntSize))
	}
	if d.opt(`,"shards":`) {
		m.Shards = d.shards()
	}
	d.lit(`}`)
	if d.err == nil && d.pos != len(d.s) {
		d.fail("end of record")
	}
	if d.err != nil {
		return ObjectMeta{}, fmt.Errorf("core: decode object meta: %w", d.err)
	}
	return m, nil
}

// metaDecoder reads a record left to right. The first failure sticks:
// every later read is a no-op, and UnmarshalObjectMeta reports it.
type metaDecoder struct {
	s   string
	pos int
	err error
}

func (d *metaDecoder) fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("at byte %d: want %s", d.pos, want)
	}
}

// opt consumes tok if the record continues with it.
func (d *metaDecoder) opt(tok string) bool {
	if d.err != nil || !strings.HasPrefix(d.s[d.pos:], tok) {
		return false
	}
	d.pos += len(tok)
	return true
}

// lit consumes tok, which the record must continue with.
func (d *metaDecoder) lit(tok string) {
	if d.err == nil && !d.opt(tok) {
		d.fail(strconv.Quote(tok))
	}
}

func (d *metaDecoder) str() string {
	if d.err != nil {
		return ""
	}
	end, plain := stringEnd(d.s, d.pos)
	if end < 0 {
		d.fail("a string")
		return ""
	}
	lit := d.s[d.pos:end]
	if plain {
		d.pos = end
		return lit[1 : len(lit)-1]
	}
	var s string
	if err := json.Unmarshal([]byte(lit), &s); err != nil {
		d.err = fmt.Errorf("at byte %d: %w", d.pos, err)
		return ""
	}
	d.pos = end
	return s
}

// stringEnd returns the index just past the string literal opening at
// s[i], or -1 if none does, and whether the literal is plain: no escape,
// control byte or non-ASCII byte, so its contents are its value.
func stringEnd(s string, i int) (end int, plain bool) {
	if i >= len(s) || s[i] != '"' {
		return -1, false
	}
	plain = true
	for i++; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return -1, false
}

// integer reads a JSON integer (an optional minus, then 0 or digits
// without a leading zero) that fits in bits.
func (d *metaDecoder) integer(bits int) int64 {
	if d.err != nil {
		return 0
	}
	i := d.pos
	if i < len(d.s) && d.s[i] == '-' {
		i++
	}
	digits := i
	for i < len(d.s) && '0' <= d.s[i] && d.s[i] <= '9' {
		i++
	}
	if i == digits || (d.s[digits] == '0' && i > digits+1) {
		d.fail("an integer without leading zeros")
		return 0
	}
	v, err := strconv.ParseInt(d.s[d.pos:i], 10, bits)
	if err != nil {
		d.err = fmt.Errorf("at byte %d: %w", d.pos, err)
		return 0
	}
	d.pos = i
	return v
}

func (d *metaDecoder) shard() ShardRef {
	var s ShardRef
	d.lit(`{"i":`)
	s.Index = int(d.integer(strconv.IntSize))
	d.lit(`,"addr":`)
	s.Addr = d.str()
	d.lit(`}`)
	return s
}

// strs reads a non-empty array of strings.
func (d *metaDecoder) strs() []string {
	list := make([]string, 0, d.open())
	for i := 0; d.next(i); i++ {
		list = append(list, d.str())
	}
	return list
}

// shards reads a non-empty array of shard placements.
func (d *metaDecoder) shards() []ShardRef {
	list := make([]ShardRef, 0, d.open())
	for i := 0; d.next(i); i++ {
		list = append(list, d.shard())
	}
	return list
}

// open consumes the '[' of an array and returns its element count, so
// the caller's slice is allocated once.
func (d *metaDecoder) open() int {
	n := d.arrayLen()
	d.lit(`[`)
	return n
}

// next reports whether element i follows: the first always must, later
// ones after a ','. Otherwise it consumes the closing ']'.
func (d *metaDecoder) next(i int) bool {
	if d.err != nil {
		return false
	}
	if i == 0 || d.opt(`,`) {
		return true
	}
	d.lit(`]`)
	return false
}

// arrayLen counts the elements of the array opening at d.pos: the commas
// outside string literals and nested objects, plus one. It only sizes a
// slice, so a malformed array needs no care here; the parse rejects it.
func (d *metaDecoder) arrayLen() int {
	n, depth := 1, 0
	for i := d.pos + 1; i < len(d.s); i++ {
		switch d.s[i] {
		case '"':
			end, _ := stringEnd(d.s, i)
			if end < 0 {
				return n
			}
			i = end - 1
		case '{':
			depth++
		case '}':
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		case ']':
			return n
		}
	}
	return n
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
