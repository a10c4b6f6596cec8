package serve

import (
	"repro/internal/obs"
)

// resultCache is the engine's query-result cache contract. Two
// implementations exist: the legacy single-mutex lruCache (cache.go,
// kept as the differential oracle and selectable with CacheShards=1)
// and the N-way shardedCache below, which the engine uses by default so
// concurrent queries stop serializing on one cache mutex.
type resultCache interface {
	Get(key string) (any, bool)
	Put(key string, val any)
	// Update replaces key's value only if it still holds old (CAS) —
	// the journal-replay repair path depends on this to never clobber a
	// fresher racing repair or recompute.
	Update(key string, old, new any)
	// RepairAll applies fn to every entry, replacing with fn's non-nil
	// return and evicting on nil.
	RepairAll(fn func(any) any)
	Purge()
	Len() int
	// ShardLens reports per-shard entry counts (a single element for the
	// unsharded cache).
	ShardLens() []int
}

// shardedCache splits the result LRU into independently locked shards,
// selected by a hash of the key. Each shard preserves lruCache's exact
// semantics — CAS updates, repair-or-evict walks, LRU eviction — so the
// journal-replay repair invariants carry over shard-locally; what
// changes is only that eviction pressure is per shard rather than
// global (entry capacity and the byte budget are both split evenly), and
// that operations on different shards no longer contend.
type shardedCache struct {
	shards []*lruCache
	mask   uint32
}

// defaultCacheShards is the Options.CacheShards default: enough ways
// that a socket's worth of query goroutines rarely collide on one
// mutex, while keeping per-shard LRU lists long enough to be useful.
const defaultCacheShards = 8

func newShardedCache(capacity, nshards int, hits, misses *obs.Counter) *shardedCache {
	n := 1
	for n < nshards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	if per < 1 {
		per = 1
	}
	c := &shardedCache{shards: make([]*lruCache, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = newLRUCache(per, cacheByteBudget/n, hits, misses)
	}
	return c
}

// shardFor hashes the key (FNV-1a) onto a shard. Query keys are float
// bit patterns with low-entropy prefixes, so a multiplicative byte hash
// is needed; the low bits of FNV-1a disperse well at small shard counts.
func (c *shardedCache) shardFor(key string) *lruCache {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h&c.mask]
}

func (c *shardedCache) Get(key string) (any, bool)      { return c.shardFor(key).Get(key) }
func (c *shardedCache) Put(key string, val any)         { c.shardFor(key).Put(key, val) }
func (c *shardedCache) Update(key string, old, new any) { c.shardFor(key).Update(key, old, new) }

func (c *shardedCache) RepairAll(fn func(any) any) {
	for _, s := range c.shards {
		s.RepairAll(fn)
	}
}

func (c *shardedCache) Purge() {
	for _, s := range c.shards {
		s.Purge()
	}
}

func (c *shardedCache) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}

func (c *shardedCache) ShardLens() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.Len()
	}
	return out
}
