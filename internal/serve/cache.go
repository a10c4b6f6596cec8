package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lruCache is one way of the engine's result cache (shardedCache,
// shardcache.go): an LRU cache for query results, bounded twice: by entry
// count (cap, the -cache flag) and by the bytes its answers hold
// (budget). The byte bound is what keeps memory flat when queries never
// repeat: a result list runs to thousands of IDs, so a cache that fills
// to its entry cap at the speed the engine answers would otherwise grow
// by tens of megabytes the faster the engine gets. It is safe for
// concurrent use. Values are treated as immutable once inserted; callers
// must not modify what Get returns.
//
// Hit/miss counters are injected obs atomics rather than fields under
// the cache mutex: stats snapshots read them lock-free alongside the
// engine's other counters, so a snapshot can no longer tear between
// values guarded by different locks.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	budget int        // bytes
	bytes  int        // sum of lruEntry.bytes
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses *obs.Counter
}

type lruEntry struct {
	key   string
	val   any
	bytes int
}

// cacheByteBudget is what the whole result cache may hold, split evenly
// across its ways. The hottest set measured (the benchmark's 256 primed
// routes) is 2 MB of answers, so 6 MiB leaves each way three times its
// share, while a never-repeating stream — which fills the budget
// whatever the budget is — keeps the process below where it sat when the
// cache filled at the pipeline's pace (`rss_mb` @ `read_cold`: 45 MB,
// was 46-54; every MiB of budget is ~2.2 MB of resident set under GOGC).
const cacheByteBudget = 6 << 20

// cacheEntryOverhead approximates what an entry costs besides its key,
// query copy and ID list: list element, map slot, the cachedQuery and
// QueryResult structs and the epoch vector.
const cacheEntryOverhead = 256

// entryBytes is the accounted size of one entry.
func entryBytes(key string, val any) int {
	n := len(key) + cacheEntryOverhead
	if q, ok := val.(*cachedQuery); ok {
		n += 16*len(q.query) + 4*len(q.res.Transitions)
	}
	return n
}

func newLRUCache(capacity, budget int, hits, misses *obs.Counter) *lruCache {
	return &lruCache{
		cap:    capacity,
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element, capacity),
		hits:   hits,
		misses: misses,
	}
}

// Get returns the cached value for key, promoting it to most recently
// used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes a value, evicting least recently used entries
// while over the entry cap or the byte budget. The newest entry is never
// evicted: an answer bigger than the whole budget is cached alone.
func (c *lruCache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.setVal(el.Value.(*lruEntry), val)
	} else {
		ent := &lruEntry{key: key}
		c.setVal(ent, val)
		c.items[key] = c.ll.PushFront(ent)
	}
	c.evict()
}

// setVal replaces an entry's value and re-accounts its bytes.
func (c *lruCache) setVal(ent *lruEntry, val any) {
	c.bytes -= ent.bytes
	ent.val = val
	ent.bytes = entryBytes(ent.key, val)
	c.bytes += ent.bytes
}

func (c *lruCache) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*lruEntry)
	c.bytes -= ent.bytes
	delete(c.items, ent.key)
}

// evict drops entries from the cold end while over either bound, always
// leaving at least one.
func (c *lruCache) evict() {
	for c.ll.Len() > 1 && (c.ll.Len() > c.cap || c.bytes > c.budget) {
		c.remove(c.ll.Back())
	}
}

// Update replaces key's value with new only if it still holds old — a
// compare-and-swap, so a lazy repair computed from a stale entry can
// never clobber a fresher value that a racing recompute or repair
// installed in the meantime. A missing key is a no-op.
func (c *lruCache) Update(key string, old, new any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if ent := el.Value.(*lruEntry); ent.val == old {
			c.setVal(ent, new)
			c.evict()
		}
	}
}

// Purge drops every entry. Hit/miss counters survive.
func (c *lruCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.bytes = 0
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
