package serve

import (
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
)

// Delta repair of cached query results.
//
// Transition writes cannot shift the rank of any OTHER transition —
// results for different transitions are independent — so a cached
// RkNNT answer does not need recomputing when transitions change: every
// removed ID is dropped from the result list, and every added
// transition is merged in if one endpoint (∃) or both (∀) take the
// cached query Q as a kNN. By the radius identity (core/doc.go) that is
//
//	PointRouteDist2(t, Q) <= r²_k(t)
//
// where r²_k(t) = index.RankRadius2 depends on the endpoint, k and the
// route set but not on Q. The journal batch that recorded the add
// memoises the radii (journal.go), so an arriving transition costs two
// RR-tree probes per k in use — paid by the first stale read that
// replays its batch — and every other cached entry pays two distance
// evaluations and two compares. Ties decide exactly as in a recompute:
// both sides of the compare are minima of Point.Dist2 values. Route
// changes still purge — they shift every radius.
//
// The engine repairs LAZILY: a commit only appends its delta to the
// shard's journal, and a stale cache hit replays, at read time, exactly
// the journal batches its epoch sub-vector missed. Entries that are
// never read again never pay.
//
// Replay is order-insensitive, so batches gathered from different shard
// journals need no global ordering: ALL removals splice first, then
// every add is verified against the CURRENT index — a liveness lookup
// (the ID may have been re-removed by a later batch, possibly on
// another shard) and a check against the transition's CURRENT geometry
// (a later re-add may have moved it; memoised radii are used only when
// they were computed for that geometry). Replaying [remove X] before or
// after [re-add X] therefore converges to the same answer: whatever the
// live index says about X now.

// repairReplayOps caps the journal ops (adds + removals) one repair may
// replay; past it a recompute is the cheaper move. Replays under a
// mixed read/write load run p50 ~50 and p99 ~600 ops, so the cap only
// turns away the rare read that missed a long write burst. A smaller
// cap buys nothing: a replay's fixed cost (one clone of the result)
// dominates short replays, and long ones amortise it.
const repairReplayOps = 1024

// tryRepair brings a stale cache hit forward to the current epoch
// vector by replaying the shard journals it missed, under the engine
// read locks (so the replay target is an exact, quiescent snapshot).
// It returns nil when repair is not possible — the structural epoch
// moved (route ranks shifted), a journal no longer reaches back far
// enough, or the replay would exceed budget — and the caller falls
// through to a full recompute.
//
// Removal batches from shards outside the entry's touched sub-vector
// are skipped: both endpoints of a transition live on one shard, so a
// result can only name transitions from touched shards. Adds are never
// skipped — a new transition on ANY shard may rank into any result —
// and each replayed add from a new shard widens the entry's mask.
func (e *Engine) tryRepair(key string, ent *cachedQuery) *QueryResult {
	old := ent.res.Epochs
	e.rlockAll()
	defer e.runlockAll()
	cur := e.epochVecQuiescent()
	if old.Structural != cur.Structural || len(old.Shards) != len(cur.Shards) {
		e.mx.repairFallbackStructural.Inc()
		return nil
	}
	var missed []journalBatch // batches with work for this entry
	touched := ent.touched
	ops := 0
	for s := range cur.Shards {
		if old.Shards[s] == cur.Shards[s] {
			continue
		}
		shardTouched := s >= 64 || touched&(1<<uint(s)) != 0
		bs, ok := e.journals[s].since(old.Shards[s], cur.Shards[s])
		if !ok {
			e.mx.repairFallbackJournal.Inc()
			return nil
		}
		for _, b := range bs {
			if !shardTouched {
				b.removed = nil // b is a copy; the journal keeps its list
			}
			if n := len(b.added) + len(b.removed); n > 0 {
				ops += n
				missed = append(missed, b)
			}
		}
		if ops > repairReplayOps {
			e.mx.repairFallbackBudget.Inc()
			return nil
		}
	}

	ids := ent.res.Transitions
	changed := false
	// Result lists are sorted, so a removed ID is found by binary search.
	for _, b := range missed {
		for _, id := range b.removed {
			i, found := slices.BinarySearch(ids, id)
			if !found {
				continue
			}
			if !changed {
				ids = slices.Clone(ids)
				changed = true
			}
			ids = slices.Delete(ids, i, i+1)
		}
	}
	for _, b := range missed {
		if len(b.added) == 0 {
			continue
		}
		radii := b.radiiFor(e, ent.opts.K)
		for j, id := range b.added {
			t, live := e.idx.TransitionValue(id)
			if !live {
				continue // re-removed by a later batch (any shard)
			}
			if !inWindow(ent.opts, &t) || !e.addMatches(ent, &t, radii[j]) {
				continue
			}
			i, found := slices.BinarySearch(ids, t.ID)
			if found {
				continue
			}
			if !changed {
				ids = slices.Clone(ids)
				changed = true
			}
			ids = slices.Insert(ids, i, t.ID)
			if s := e.idx.HomeShard(t.ID); s < 64 {
				touched |= 1 << uint(s)
			}
		}
	}

	e.mx.repairReplayOps.Record(uint64(ops))
	stats := ent.res.Stats
	stats.Results = len(ids)
	stats.ShardsTouched = touched
	res := &QueryResult{Transitions: ids, Stats: stats, Cached: true, Repaired: true, Epoch: cur.Sum(), Epochs: cur}
	e.cache.Update(key, ent, &cachedQuery{
		res:     &QueryResult{Transitions: ids, Stats: stats, Epoch: res.Epoch, Epochs: cur},
		query:   ent.query,
		opts:    ent.opts,
		touched: touched,
	})
	e.mx.cacheRepairs.Inc()
	return res
}

// addMatches reports whether the live transition t belongs to the cached
// query's result set, from its rank radii: one point-route distance and
// one compare per endpoint (Definition 5 semantics: ∃ needs one
// qualifying endpoint, ∀ both). memo is the journal batch's record for
// t's ID; when it was taken for other geometry (the ID was removed and
// re-added elsewhere since) the radii are probed afresh and not kept —
// the batch that re-added it carries the memo for the new geometry.
func (e *Engine) addMatches(ent *cachedQuery, t *model.Transition, memo addRadii) bool {
	if memo.o != t.O || memo.d != t.D {
		memo = e.probeRadii(t, ent.opts.K)
	}
	o := geo.PointRouteDist2(t.O, ent.query) <= memo.ro2
	if ent.opts.Semantics == core.ForAll {
		return o && geo.PointRouteDist2(t.D, ent.query) <= memo.rd2
	}
	return o || geo.PointRouteDist2(t.D, ent.query) <= memo.rd2
}

// inWindow replicates core's temporal-window filter for one transition.
func inWindow(opts core.Options, t *model.Transition) bool {
	if opts.TimeFrom == 0 && opts.TimeTo == 0 {
		return true
	}
	return t.Time >= opts.TimeFrom && t.Time <= opts.TimeTo
}
