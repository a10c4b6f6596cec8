package serve

import (
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// Per-shard delta journals.
//
// A commit only appends its net delta to its shard's journal — O(batch),
// no cache walk — and a cached result is repaired lazily at read time,
// replaying just the batches it missed (repair.go). Reads that never
// come back never pay; hot reads replay one or two tiny deltas.
//
// Replay is order-insensitive by construction, so journal batches from
// different shards need no global ordering: removals splice by ID, and
// adds are verified against the CURRENT index (liveness + geometry)
// rather than trusting historical values — see repair.go for the
// argument.
//
// Each batch also memoises the rank radii of the transitions it added
// (index.RankRadius2, one pair per k in use). A radius depends on the
// endpoint, k and the route set, never on the query, so every cached
// entry that replays the batch shares one pair of RR-tree probes per
// added transition. At the radius plane's k the writer has already
// probed — the index stores the radii with the endpoints — and the
// commit hands them over (radiusMemo.record), so replay probes nothing;
// at any other k the first stale read that replays the batch pays.
// Journals are reset on every route change, so a memo never outlives
// the route set it was computed over.

// journalBatch is the net effect of one committed write batch on one
// shard, folded in op order.
type journalBatch struct {
	epoch   uint64 // the shard epoch this batch advanced TO
	added   []model.TransitionID
	removed []model.TransitionID
	// radii memoises the rank radii of added. It is a pointer so the
	// copies of the batch that since hands out share one memo.
	radii *radiusMemo
}

// addRadii is what a batch remembers about one added transition for one
// k: the squared rank radii of its endpoints and the geometry they were
// computed for. A replay trusts the radii only while the live transition
// still has that geometry — a later remove and re-add of the same ID may
// have moved it.
type addRadii struct {
	o, d     geo.Point
	ro2, rd2 float64
}

// radiusMemo holds a batch's radii per k. The k values in use are few
// (one per distinct cached k), so a slice scan beats a map.
type radiusMemo struct {
	mu  sync.Mutex
	byK []kRadii
}

type kRadii struct {
	k     int
	radii []addRadii // parallel to journalBatch.added; immutable once published
}

// record appends the radii the index stored for t — the i-th transition
// of the add run that stored describes — at the radius plane's k, if
// there is a plane. The committing pipeline calls it once per journalled
// add, in order, before the batch is published (the plane cannot change
// under the shard's write lock), so the list ends up parallel to added.
func (m *radiusMemo) record(t *model.Transition, stored index.AddedRadii, i int) {
	if stored.K == 0 {
		return
	}
	if m.byK == nil {
		m.byK = []kRadii{{k: stored.K}}
	}
	ro2, rd2 := stored.At(i)
	m.byK[0].radii = append(m.byK[0].radii, addRadii{o: t.O, d: t.D, ro2: ro2, rd2: rd2})
}

// radiiFor returns the batch's radii for k, probing the RR-tree for them
// on first use. The caller holds the engine read locks, so the index is
// quiescent and every concurrent caller would compute the same values;
// the mutex only makes sure one of them does. A transition that is no
// longer live gets NaN geometry, which no live transition compares equal
// to, so a replay that finds the ID live again recomputes.
func (b *journalBatch) radiiFor(e *Engine, k int) []addRadii {
	m := b.radii
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.byK {
		if m.byK[i].k == k {
			return m.byK[i].radii
		}
	}
	radii := make([]addRadii, len(b.added))
	nan := geo.Pt(math.NaN(), math.NaN())
	for i, id := range b.added {
		t, live := e.idx.TransitionValue(id)
		if !live {
			radii[i] = addRadii{o: nan, d: nan}
			continue
		}
		radii[i] = e.probeRadii(&t, k)
	}
	m.byK = append(m.byK, kRadii{k: k, radii: radii})
	return radii
}

// probeRadii computes the rank radii of both endpoints of t: the two
// RR-tree probes an arriving transition costs, whatever the number of
// cached queries.
func (e *Engine) probeRadii(t *model.Transition, k int) addRadii {
	e.mx.radiusProbes.Add(2)
	return addRadii{
		o: t.O, d: t.D,
		ro2: e.idx.RankRadius2(t.O, k),
		rd2: e.idx.RankRadius2(t.D, k),
	}
}

// journalCap is the per-shard retention: a reader further behind than
// this many batches recomputes instead of repairing.
const journalCap = 256

// journalOpCap bounds total IDs retained per shard journal, so a few
// huge batches cannot pin unbounded memory.
const journalOpCap = 8192

// shardJournal is one shard's bounded ring of recent commit deltas.
// Appends happen under the shard's write lock (one writer at a time);
// reads happen under the engine read locks from concurrent repairs, so
// a mutex still guards the slice itself.
type shardJournal struct {
	mu      sync.Mutex
	batches []journalBatch // ascending, contiguous epochs
	ops     int            // total IDs across batches
}

// append records a committed batch that advanced the shard to epoch.
func (j *shardJournal) append(b journalBatch) {
	if b.radii == nil {
		b.radii = new(radiusMemo)
	}
	j.mu.Lock()
	j.batches = append(j.batches, b)
	j.ops += len(b.added) + len(b.removed)
	for len(j.batches) > journalCap || j.ops > journalOpCap {
		j.ops -= len(j.batches[0].added) + len(j.batches[0].removed)
		j.batches = j.batches[1:]
	}
	j.mu.Unlock()
}

// since returns the batches covering shard epochs (from, to], oldest
// first. ok is false when the journal no longer reaches back to from
// (evicted) — the caller must recompute. The returned batches are
// shared read-only views.
func (j *shardJournal) since(from, to uint64) ([]journalBatch, bool) {
	if from == to {
		return nil, true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.batches)
	if n == 0 || j.batches[0].epoch > from+1 || j.batches[n-1].epoch < to {
		return nil, false
	}
	// Epochs are contiguous: batch i holds epoch first+i.
	first := j.batches[0].epoch
	lo := int(from + 1 - first)
	hi := int(to + 1 - first)
	if lo < 0 || hi > n {
		return nil, false
	}
	return j.batches[lo:hi], true
}

// reset drops every retained batch (route changes purge the cache, so
// nothing left can ever be replayed).
func (j *shardJournal) reset() {
	j.mu.Lock()
	j.batches = nil
	j.ops = 0
	j.mu.Unlock()
}
