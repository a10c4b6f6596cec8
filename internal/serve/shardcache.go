package serve

import (
	"repro/internal/obs"
)

// shardedCache is the engine's query-result cache: the result LRU split
// into independently locked ways (lruCache, cache.go), selected by a
// hash of the key, so concurrent queries do not serialize on one cache
// mutex. Each way keeps lruCache's exact semantics — CAS updates, LRU
// eviction — so the journal-replay repair invariants hold way-locally;
// eviction pressure is per way rather than global (entry capacity and
// the byte budget are both split evenly).
type shardedCache struct {
	shards []*lruCache
	mask   uint32
}

// defaultCacheShards is the engine's way count: enough ways
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
