package serve

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

func newTestShardedCache(capacity, shards int) (*shardedCache, *obs.Counter, *obs.Counter) {
	reg := obs.NewRegistry()
	hits := reg.Counter("hits", "")
	misses := reg.Counter("misses", "")
	return newShardedCache(capacity, shards, hits, misses), hits, misses
}

// TestShardedCacheSemantics checks the sharded cache preserves the
// lruCache contract the repair path depends on: stable key routing, CAS
// updates, and consistent Len/ShardLens.
func TestShardedCacheSemantics(t *testing.T) {
	c, hits, misses := newTestShardedCache(64, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards: %d, want 8", len(c.shards))
	}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Put(keys[i], i)
	}
	for i, k := range keys {
		v, ok := c.Get(k)
		if !ok || v.(int) != i {
			t.Fatalf("Get(%q) = %v, %v", k, v, ok)
		}
	}
	if h := hits.Load(); h != 40 {
		t.Fatalf("hits: %d, want 40", h)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	if m := misses.Load(); m != 1 {
		t.Fatalf("misses: %d, want 1", m)
	}
	sum := 0
	for _, n := range c.ShardLens() {
		sum += n
	}
	if sum != c.Len() || c.Len() != 40 {
		t.Fatalf("ShardLens sum %d, Len %d, want 40", sum, c.Len())
	}

	// CAS: a stale old value must not clobber.
	c.Update(keys[3], 3, 300)
	if v, _ := c.Get(keys[3]); v.(int) != 300 {
		t.Fatalf("Update: got %v", v)
	}
	c.Update(keys[3], 3, 999) // old mismatch: no-op
	if v, _ := c.Get(keys[3]); v.(int) != 300 {
		t.Fatalf("stale Update applied: got %v", v)
	}

	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge: %d", c.Len())
	}
}

// TestShardedCacheRouting checks keys always land on the same shard and
// non-power-of-two shard counts round up.
func TestShardedCacheRouting(t *testing.T) {
	c, _, _ := newTestShardedCache(100, 7)
	if len(c.shards) != 8 {
		t.Fatalf("shards: %d, want 8 (rounded up)", len(c.shards))
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("route-%d", i)
		if c.shardFor(k) != c.shardFor(k) {
			t.Fatalf("unstable routing for %q", k)
		}
	}
	// Tiny capacity still gives every shard at least one slot.
	small, _, _ := newTestShardedCache(1, 4)
	for _, s := range small.shards {
		if s.cap < 1 {
			t.Fatalf("shard capacity %d", s.cap)
		}
	}
}
