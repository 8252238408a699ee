package core

import "container/list"

// dataCache is the dom0 read-through payload cache of the concurrent data
// plane: objects fetched over the wire are kept in the control domain, so
// a repeat fetch costs only the metadata lookup plus the inter-domain
// drain — local-store latency instead of a LAN (or WAN) transfer. The
// cache is capacity-bounded against the node's voluntary bin (the space
// the device already volunteered to the pool) and invalidated whenever an
// object is re-placed, overwritten, or deleted anywhere in the home.
//
// Sparse objects — the experiment harness's cost-model-only payloads —
// cache as a nil byte slice whose recorded size still counts against the
// capacity, so cache behaviour is identical whether bytes are
// materialised or not. Like the rest of a node, it has no lock: only the
// actor holding the clock's turn calls it.
type dataCache struct {
	cap   int64
	used  int64
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	name string
	data []byte // nil for sparse objects
	size int64  // modeled size; len(data) when materialised
}

func newDataCache(capBytes int64) *dataCache {
	if capBytes <= 0 {
		return nil
	}
	return &dataCache{
		cap:   capBytes,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns a read-only borrow of the cached payload (nil for a sparse
// hit) and whether the object was cached at all.
func (c *dataCache) get(name string) ([]byte, bool) {
	el, ok := c.items[name]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// put inserts (or refreshes) an entry, evicting least-recently-used
// entries until it fits. Objects larger than the whole cache are skipped.
// data is kept as the borrow it arrived as: nobody in core writes one.
func (c *dataCache) put(name string, data []byte, size int64) {
	if size < 0 || size > c.cap {
		return
	}
	if el, ok := c.items[name]; ok {
		old := el.Value.(*cacheEntry)
		c.used -= old.size
		c.order.Remove(el)
		delete(c.items, name)
	}
	for c.used+size > c.cap {
		back := c.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.used -= victim.size
		c.order.Remove(back)
		delete(c.items, victim.name)
	}
	c.items[name] = c.order.PushFront(&cacheEntry{name: name, data: data, size: size})
	c.used += size
}

// invalidate drops the entry for name, if cached.
func (c *dataCache) invalidate(name string) {
	if el, ok := c.items[name]; ok {
		c.used -= el.Value.(*cacheEntry).size
		c.order.Remove(el)
		delete(c.items, name)
	}
}
