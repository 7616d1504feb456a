package server

import (
	"container/list"
	"sync"
)

// resultCache is a size-bounded LRU over encoded query results — the
// solutions array exactly as it goes on the wire, so a hit is a copy into
// the response — keyed on the canonical query form
// (query.Select.CacheKey, so syntactic variants of the same BGP share an
// entry). Bounded twice: by entry count and by the bytes held
// (len(key)+len(solutions) per entry), whichever trips first. The ring
// is immutable once loaded, so entries never go stale by themselves;
// invalidate drops the generation wholesale on an index reload, and live
// mode keys entries by store generation instead.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int                      // immutable after construction
	maxBytes   int64                    // immutable after construction
	bytes      int64                    //ringlint:guarded-by mu
	ll         *list.List               // MRU at front; values are *cacheEntry //ringlint:guarded-by mu
	items      map[string]*list.Element //ringlint:guarded-by mu

	hits, misses, evictions, invalidations int64 //ringlint:guarded-by mu
}

type cacheEntry struct {
	key   string
	sols  []byte // the encoded solutions array
	count int    // how many solutions it holds
}

func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.sols)) }

// cacheStats is a point-in-time snapshot of the cache counters.
type cacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// get returns the cached solutions array with its solution count and
// marks the entry most-recently-used. Callers must treat the returned
// slice as immutable — it is shared with every other hit for the same key.
func (c *resultCache) get(key string) (sols []byte, count int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.ll.MoveToFront(elem)
	entry := elem.Value.(*cacheEntry)
	return entry.sols, entry.count, true
}

// put inserts (or refreshes) an entry, taking ownership of sols, and
// evicts from the LRU tail until both bounds hold again. Entries bigger
// than the byte bound are not cached at all.
func (c *resultCache) put(key string, sols []byte, count int) {
	entry := &cacheEntry{key: key, sols: sols, count: count}
	if c.maxBytes > 0 && entry.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.items[key]; ok {
		c.bytes -= elem.Value.(*cacheEntry).size()
		elem.Value = entry
		c.ll.MoveToFront(elem)
	} else {
		c.items[key] = c.ll.PushFront(entry)
	}
	c.bytes += entry.size()
	for c.ll.Len() > 0 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		tail := c.ll.Back()
		entry := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, entry.key)
		c.bytes -= entry.size()
		c.evictions++
	}
}

// invalidate drops every entry.
func (c *resultCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.bytes = 0
	c.invalidations++
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: c.ll.Len(), Bytes: c.bytes,
	}
}
