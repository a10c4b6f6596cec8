package index

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/rtree"
)

// Per-shard commit entry points. The batch APIs in index.go apply a
// mixed batch across every shard under one caller-provided writer; the
// entry points here let two shards commit under disjoint locks:
//
//   - The caller serialises commits to the SAME shard (the serving
//     layer holds that shard's write lock) and excludes readers for the
//     duration (queries hold every shard's read lock).
//   - Commits to DISTINCT shards may run concurrently: the bookkeeping
//     they share — the transitions map and the expiry heap — is
//     guarded internally by metaMu. The expensive part, the R-tree
//     surgery, touches only the committing shard's tree and runs
//     outside metaMu.
//
// Every transition lives in HomeShard(id), a stable hash of the ID —
// bulk load, dynamic adds and snapshot load all place it there — so any
// client of the index can compute the owning shard, and with it the one
// write pipeline every op on that ID serialises through, without a
// lookup.

// HomeShard returns the shard that holds (or would hold) transition id:
// a stable splitmix-style hash of the ID modulo the shard count.
func (x *Index) HomeShard(id model.TransitionID) int {
	return homeShard(id, len(x.trShards))
}

func homeShard(id model.TransitionID, shards int) int {
	z := uint64(uint32(id)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// AddBatchToShard indexes ts, every one of which must have home shard
// s, into that shard. errs[i] is the outcome of ts[i] (a transition
// homed elsewhere is rejected; duplicate IDs are rejected index-wide).
// The caller must hold shard s's write exclusion and keep readers out;
// commits to other shards may proceed concurrently.
//
// With a radius plane attached each endpoint is stored with its rank
// radius; the radii come back too, so a serving layer that needs them
// (journal memos) does not probe a second time.
func (x *Index) AddBatchToShard(s int, ts []model.Transition) ([]error, AddedRadii) {
	errs := make([]error, len(ts))
	entries := make([]rtree.Entry, 0, 2*len(ts))
	accepted := make([]int, 0, len(ts)) // ts index of entries[2j], entries[2j+1]
	x.metaMu.Lock()
	for i := range ts {
		t := ts[i]
		if errs[i] = validateTransition(&t); errs[i] != nil {
			continue
		}
		if h := x.HomeShard(t.ID); h != s {
			errs[i] = fmt.Errorf("index: transition %d belongs to shard %d, not %d", t.ID, h, s)
			continue
		}
		if _, dup := x.transitions[t.ID]; dup {
			errs[i] = fmt.Errorf("index: duplicate transition ID %d", t.ID)
			continue
		}
		cp := t
		x.transitions[t.ID] = &cp
		if t.Time != 0 {
			x.expiry.push(timedEntry{time: t.Time, id: t.ID})
		}
		entries = append(entries,
			rtree.Entry{Pt: t.O, ID: t.ID, Aux: Origin},
			rtree.Entry{Pt: t.D, ID: t.ID, Aux: Destination})
		accepted = append(accepted, i)
	}
	x.metaMu.Unlock()
	radii := AddedRadii{K: x.RadiusK()}
	if len(entries) == 0 {
		return errs, radii
	}
	if radii.K != 0 {
		radii.r2 = make([]float64, 2*len(ts))
	}
	j := 0 // entries[j] is being inserted
	x.applyShard(s, entries, func(s int, e rtree.Entry) {
		if r2 := x.insertEntry(s, e, radii.K); radii.K != 0 {
			radii.r2[2*accepted[j/2]+j%2] = r2
		}
		j++
	})
	return errs, radii
}

// RemoveBatchFromShard removes those of ids whose home shard is s.
// removed[i] reports that ids[i] was present and is now gone; an ID
// homed on another shard is left alone. Locking contract as in
// AddBatchToShard.
func (x *Index) RemoveBatchFromShard(s int, ids []model.TransitionID) (removed []bool) {
	removed = make([]bool, len(ids))
	entries := make([]rtree.Entry, 0, 2*len(ids))
	x.metaMu.Lock()
	for i, id := range ids {
		t, ok := x.transitions[id]
		if !ok || x.HomeShard(id) != s {
			continue
		}
		removed[i] = true
		entries = append(entries,
			rtree.Entry{Pt: t.O, ID: t.ID, Aux: Origin},
			rtree.Entry{Pt: t.D, ID: t.ID, Aux: Destination})
		delete(x.transitions, id)
	}
	x.metaMu.Unlock()
	if len(entries) > 0 {
		x.applyShard(s, entries, x.deleteEntry)
	}
	return removed
}

// RemoveBatchAnyShard removes ids from their home shards, grouping the
// tree surgery per shard. perShard[s] lists the IDs removed from shard
// s; removed[i] reports ids[i] was present. The caller must hold EVERY
// shard's write exclusion (barrier commits — expiry sweeps — use this).
func (x *Index) RemoveBatchAnyShard(ids []model.TransitionID) (removed []bool, perShard [][]model.TransitionID) {
	removed = make([]bool, len(ids))
	perShard = make([][]model.TransitionID, len(x.trShards))
	entries := make([][]rtree.Entry, len(x.trShards))
	x.metaMu.Lock()
	for i, id := range ids {
		t, ok := x.transitions[id]
		if !ok {
			continue
		}
		removed[i] = true
		s := x.HomeShard(id)
		perShard[s] = append(perShard[s], id)
		entries[s] = append(entries[s],
			rtree.Entry{Pt: t.O, ID: t.ID, Aux: Origin},
			rtree.Entry{Pt: t.D, ID: t.ID, Aux: Destination})
		delete(x.transitions, id)
	}
	x.metaMu.Unlock()
	for s := range entries {
		if len(entries[s]) == 0 {
			continue
		}
		x.applyShard(s, entries[s], x.deleteEntry)
	}
	return removed, perShard
}

// TransitionValue returns a copy of the transition with the given ID.
// Unlike Transition it is safe to call concurrently with per-shard
// commits (the lookup runs under metaMu and the value is copied out).
func (x *Index) TransitionValue(id model.TransitionID) (model.Transition, bool) {
	x.metaMu.Lock()
	t, ok := x.transitions[id]
	if !ok {
		x.metaMu.Unlock()
		return model.Transition{}, false
	}
	cp := *t
	x.metaMu.Unlock()
	return cp, true
}

// DrainTimedBeforeLocked is DrainTimedBefore for barrier commits: the
// heap pop and liveness checks run under metaMu so the sweep is safe
// against the bookkeeping even if a stray per-shard commit were still
// in flight. The caller must hold every shard's write exclusion before
// removing the returned victims.
func (x *Index) DrainTimedBeforeLocked(cutoff int64) []model.TransitionID {
	start := time.Now()
	x.metaMu.Lock()
	var victims []model.TransitionID
	seen := map[model.TransitionID]bool{}
	for len(x.expiry) > 0 && x.expiry[0].time < cutoff {
		e := x.expiry.pop()
		t, ok := x.transitions[e.id]
		if !ok || t.Time != e.time || seen[e.id] {
			continue
		}
		seen[e.id] = true
		victims = append(victims, e.id)
	}
	x.metaMu.Unlock()
	x.observer.ExpirySweep.RecordDuration(time.Since(start))
	x.observer.ExpirySwept.Add(uint64(len(victims)))
	return victims
}
