package core

import (
	"bytes"
	"sync"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/monitor"
)

// decodeMemo caches the most recent decode of each live node's monitor
// resource record. The decision layer reads every candidate's record on
// each store and process, but a record only changes once per monitor
// period, so most reads skip the JSON pass. A hit is detected by
// comparing raw bytes, never by version — a key's version counter resets
// after delete/re-create, and different readers may see different path
// caches — and the stored copy is private, so later kv writes can never
// corrupt a cached decode.
//
// Size bound: entries are keyed by a member node's monitor key, inserted
// only while that node is in Home.nodes and dropped under the same lock
// that removes it (see Home.RemoveNode), so len(res) never exceeds the
// number of addresses currently in the home.
type decodeMemo struct {
	mu  sync.Mutex
	res map[ids.ID]resMemoEntry // guarded by mu
}

type resMemoEntry struct {
	raw []byte
	res monitor.Resources
}

// lookup returns the cached decode of key if its raw bytes equal data.
//
// c4h:hotpath
func (m *decodeMemo) lookup(key ids.ID, data []byte) (monitor.Resources, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.res[key]; ok && bytes.Equal(e.raw, data) {
		return e.res, true
	}
	return monitor.Resources{}, false
}

// store records res as the decode of data, copying the bytes.
func (m *decodeMemo) store(key ids.ID, data []byte, res monitor.Resources) {
	raw := make([]byte, len(data))
	copy(raw, data)
	m.mu.Lock()
	if m.res == nil {
		m.res = make(map[ids.ID]resMemoEntry)
	}
	m.res[key] = resMemoEntry{raw: raw, res: res}
	m.mu.Unlock()
}

// drop forgets key's entry.
func (m *decodeMemo) drop(key ids.ID) {
	m.mu.Lock()
	delete(m.res, key)
	m.mu.Unlock()
}

// decodeResources decodes peer's monitor record through the memo. The
// entry is stored under h.mu only while peer is still a member, which
// together with RemoveNode's drop keeps the memo bounded by membership
// even when a lookup races a crash.
func (h *Home) decodeResources(peer *Node, v kv.Value) (monitor.Resources, error) {
	if r, ok := h.memo.lookup(peer.mon.Key(), v.Data); ok {
		return r, nil
	}
	r, err := monitor.UnmarshalResources(v.Data)
	if err != nil {
		return monitor.Resources{}, err
	}
	h.mu.RLock()
	if h.nodes[peer.addr] == peer {
		h.memo.store(peer.mon.Key(), v.Data, r)
	}
	h.mu.RUnlock()
	return r, nil
}
