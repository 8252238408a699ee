package core

import (
	"bytes"
	"fmt"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/monitor"
	"cloud4home/internal/services"
)

// decodeMemo caches the most recent decode of the two kv records the
// decision layer reads on every operation but that rarely change: each
// live node's monitor resource record, read for every candidate of each
// store and process and changed once per monitor period, and each
// service's registration, read by every decided process and changed only
// when a host deploys or undeploys the service. So most reads skip the
// JSON pass. A hit is detected by comparing raw bytes, never by version —
// a key's version counter resets after delete/re-create, and different
// readers may see different path caches — and the stored copy is
// private, so later kv writes can never corrupt a cached decode.
//
// Size bound: a resource record's entry is keyed by a member node's
// monitor key, inserted only while that node is in Home.nodes and dropped
// with no yield after RemoveNode takes it out of Home.nodes; a
// registration's entry is keyed by its service key and stored only once
// the record decoded, and registrations are never deleted from kv. So
// len(entries) never exceeds the number of addresses currently in the
// home plus the number of services ever registered in it.
//
// The memo has no lock: only the actor holding the clock's turn reads or
// writes it, and no kernel goroutine reaches it.
type decodeMemo struct {
	entries map[ids.ID]memoEntry
}

type memoEntry struct {
	raw []byte
	val any // a monitor.Resources or a services.Registration
}

// lookup returns the cached decode of key if its raw bytes equal data,
// and nil otherwise.
//
// c4h:hotpath
func (m *decodeMemo) lookup(key ids.ID, data []byte) any {
	if e, ok := m.entries[key]; ok && bytes.Equal(e.raw, data) {
		return e.val
	}
	return nil
}

// store records val as the decode of data, copying the bytes.
func (m *decodeMemo) store(key ids.ID, data []byte, val any) {
	raw := make([]byte, len(data))
	copy(raw, data)
	if m.entries == nil {
		m.entries = make(map[ids.ID]memoEntry)
	}
	m.entries[key] = memoEntry{raw: raw, val: val}
}

// drop forgets key's entry.
func (m *decodeMemo) drop(key ids.ID) { delete(m.entries, key) }

// decodeResources decodes peer's monitor record through the memo. The
// entry is stored only while peer is still a member, which together with
// RemoveNode's drop keeps the memo bounded by membership even when the
// kv read that fetched v slept across a crash.
func (h *Home) decodeResources(peer *Node, v kv.Value) (monitor.Resources, error) {
	if r, ok := h.memo.lookup(peer.mon.Key(), v.Data).(monitor.Resources); ok {
		return r, nil
	}
	r, err := monitor.UnmarshalResources(v.Data)
	if err != nil {
		return monitor.Resources{}, err
	}
	if h.nodes[peer.addr] == peer {
		h.memo.store(peer.mon.Key(), v.Data, r)
	}
	return r, nil
}

// registration reads a service's registration, the "'value' field for
// the service [that] is used to determine other possible targets"
// (§III-B). The kv walk is services.Discover's — the same getChain, so
// hops, path caches and counters are too — but the record is read
// zero-copy and decoded through the home's memo: it is decoded again only
// when its bytes differ from the last decode's. The returned Nodes is
// shared with the memo and every other reader: read-only.
//
// c4h:hotpath
func (n *Node) registration(name string, id uint32) (services.Registration, error) {
	key := services.Key(name, id)
	gr, err := n.home.kv.GetRef(n.id, key)
	if err != nil {
		return services.Registration{}, fmt.Errorf("services: discover %s: %w", name, err)
	}
	if reg, ok := n.home.memo.lookup(key, gr.Value.Data).(services.Registration); ok {
		return reg, nil
	}
	return n.home.decodeRegistration(key, gr.Value.Data)
}

// decodeRegistration is registration's miss: decode data, a new version
// of key's record, and keep the decode.
func (h *Home) decodeRegistration(key ids.ID, data []byte) (services.Registration, error) {
	reg, err := services.UnmarshalRegistration(data)
	if err != nil {
		return services.Registration{}, err
	}
	h.memo.store(key, data, reg)
	return reg, nil
}
