package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// TestRepairedCacheMatchesFresh is the differential property behind
// delta repair: under sustained churn (adds, removes, sliding-window
// expiry), a query served from the repaired cache must be identical to a
// fresh computation over the current index — for both semantics, with
// and without a time window.
func TestRepairedCacheMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := &model.Dataset{}
	// Shared stop locations: routes that share a stop ID must share its
	// point, or crossover credit (Definition 7) would be unsound.
	stopPts := make([]geo.Point, 30)
	for i := range stopPts {
		stopPts[i] = geo.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	for r := 0; r < 20; r++ {
		n := 2 + rng.Intn(4)
		route := model.Route{ID: int32(r + 1)}
		for i := 0; i < n; i++ {
			s := int32(rng.Intn(30))
			route.Stops = append(route.Stops, s)
			route.Pts = append(route.Pts, stopPts[s])
		}
		ds.Routes = append(ds.Routes, route)
	}
	x, err := index.BuildOpts(ds, index.Options{TRShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := New(x, Options{})
	defer e.Close()

	queries := make([][]geo.Point, 6)
	for i := range queries {
		queries[i] = []geo.Point{
			geo.Pt(rng.Float64()*40, rng.Float64()*40),
			geo.Pt(rng.Float64()*40, rng.Float64()*40),
		}
	}
	optsSet := []core.Options{
		{K: 3},
		{K: 5, Semantics: core.ForAll},
		{K: 4, TimeFrom: 100, TimeTo: 10_000},
	}

	live := map[model.TransitionID]bool{}
	nextID := model.TransitionID(1)
	now := int64(100)
	for step := 0; step < 120; step++ {
		// Mutate: mostly adds (some timed), occasional removes/expiries.
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0:
			tr := model.Transition{
				ID: nextID,
				O:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
				D:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
			}
			if rng.Intn(2) == 0 {
				tr.Time = now
				now += 10
			}
			nextID++
			if err := e.AddTransition(tr); err != nil {
				t.Fatal(err)
			}
			live[tr.ID] = true
		case op < 8:
			var victim model.TransitionID
			k := rng.Intn(len(live))
			for id := range live {
				if k == 0 {
					victim = id
					break
				}
				k--
			}
			if _, err := e.RemoveTransition(victim); err != nil {
				t.Fatal(err)
			}
			delete(live, victim)
		default:
			cutoff := now - int64(rng.Intn(200))
			if _, err := e.ExpireTransitionsBefore(cutoff); err != nil {
				t.Fatal(err)
			}
			for id := range live {
				if tr := e.Transition(id); tr == nil {
					delete(live, id)
				}
			}
		}
		// Every query from the (mostly repaired) cache must match a
		// fresh computation.
		q := queries[rng.Intn(len(queries))]
		opts := optsSet[rng.Intn(len(optsSet))]
		got, err := e.RkNNT(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := func() ([]model.TransitionID, *core.Stats, error) {
			e.rlockAll()
			defer e.runlockAll()
			return core.RkNNT(e.idx, q, opts)
		}()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Transitions, want) && !(len(got.Transitions) == 0 && len(want) == 0) {
			t.Fatalf("step %d (cached=%v): repaired %v != fresh %v", step, got.Cached, got.Transitions, want)
		}
	}
	st := e.EngineStats()
	if st.CacheRepairs == 0 {
		t.Fatal("churn produced no cache repairs; the repair path was not exercised")
	}
}

// TestRepairAddRemoveSameBatch is the regression test for intra-batch
// resurrection: an add and a remove of the same transition coalesced
// into ONE write batch must net out to "never existed" — repairing
// removals-then-adds from flat lists would rank-check the already-dead
// transition (the check is purely geometric) and serve its ID from
// cache forever. The shard pipeline's apply is driven directly so the
// coalescing is deterministic. Transition 7 is bulk-loaded: on two and
// four shards its removal must find it through the same pipeline its
// re-add commits to, whether the ops are driven as one batch or come
// through the public API.
func TestRepairAddRemoveSameBatch(t *testing.T) {
	for _, shards := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			repairAddRemoveSameBatch(t, shards)
		})
	}
}

func repairAddRemoveSameBatch(t *testing.T, shards int) {
	seven := model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)}
	x := twoRoutesSharded(t, shards, seven)
	e := New(x, Options{})
	defer e.Close()
	opts := core.Options{K: 1}
	wantSeven := func(label string, wantCached bool) {
		t.Helper()
		got, err := e.RkNNT(queryY0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if wantCached && !got.Cached {
			t.Errorf("%s: expected repaired cache hit", label)
		}
		if len(got.Transitions) != 1 || got.Transitions[0] != 7 {
			t.Fatalf("%s: got %v, want [7]", label, got.Transitions)
		}
	}
	wantSeven("warm the cache", false)
	mk := func(kind opKind, t model.Transition, id model.TransitionID) writeOp {
		return writeOp{kind: kind, t: t, id: id, done: make(chan opResult, 1)}
	}
	ghost := model.Transition{ID: 8, O: geo.Pt(2, 0), D: geo.Pt(8, 0)}
	batch := []writeOp{
		mk(opAddTransition, ghost, 0),
		mk(opRemoveTransition, model.Transition{}, 8),
	}
	e.pipes[e.idx.HomeShard(8)].applyShard(batch)
	for _, op := range batch {
		<-op.done
	}
	if e.Transition(8) != nil {
		t.Fatal("transition 8 still in index")
	}
	wantSeven("ghost add+remove in one batch", true)
	// The mirror case: remove then re-add in one batch keeps it.
	batch = []writeOp{
		mk(opRemoveTransition, model.Transition{}, 7),
		mk(opAddTransition, seven, 0),
	}
	e.pipes[e.idx.HomeShard(7)].applyShard(batch)
	if res := <-batch[0].done; res.err != nil || !res.existed {
		t.Fatalf("remove of bulk-loaded 7 on its home pipeline: %+v", res)
	}
	if res := <-batch[1].done; res.err != nil {
		t.Fatalf("re-add of 7 behind its removal: %v", res.err)
	}
	wantSeven("remove+re-add in one batch", false)
	// The same pair through the public API.
	if existed, err := e.RemoveTransitions([]model.TransitionID{7}); err != nil || !existed[0] {
		t.Fatalf("RemoveTransitions(7): existed=%v err=%v", existed, err)
	}
	if errs := e.AddTransitions([]model.Transition{seven}); errs[0] != nil {
		t.Fatalf("AddTransitions(7) after its removal: %v", errs[0])
	}
	wantSeven("public remove then re-add", false)
	if existed, err := e.RemoveTransitions([]model.TransitionID{7}); err != nil || !existed[0] {
		t.Fatalf("final RemoveTransitions(7): existed=%v err=%v", existed, err)
	}
	if n := e.NumTransitions(); n != 0 {
		t.Fatalf("%d transitions left, want 0", n)
	}
}

// TestRepairBudgetFallsBackToPurge floods the write path with more adds
// than a shard journal retains (and than the replay budget allows), so
// the stale cache entry cannot be replayed: the read must fall back to a
// recompute, and its answer must equal a fresh computation.
func TestRepairBudgetFallsBackToPurge(t *testing.T) {
	x := twoRoutes(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})
	e := New(x, Options{})
	defer e.Close()
	opts := core.Options{K: 1}
	if _, err := e.RkNNT(queryY0, opts); err != nil {
		t.Fatal(err)
	}
	ts := make([]model.Transition, journalOpCap+1)
	for i := range ts {
		ts[i] = model.Transition{
			ID: model.TransitionID(1000 + i),
			O:  geo.Pt(float64(i%10), 50),
			D:  geo.Pt(float64(i%10), 60),
		}
	}
	for _, err := range e.AddTransitions(ts) {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.RkNNT(queryY0, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.RkNNT(x, queryY0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Repaired {
		t.Error("a read behind a flood the journals cannot hold was repaired, not recomputed")
	}
	if !reflect.DeepEqual(got.Transitions, want) {
		t.Fatalf("post-flood result %d ids != fresh %d ids", len(got.Transitions), len(want))
	}
}

// TestRepairBudgetBoundary pins the replay budget: a stale read that
// missed exactly repairReplayOps journal ops is repaired, one op more
// falls back to a recompute counted under reason="budget". Both answers
// must equal brute force. The ops commit as one batch on one shard, well
// inside the journal's retention, so only the budget can turn a read away.
func TestRepairBudgetBoundary(t *testing.T) {
	for _, tc := range []struct {
		ops       int
		repaired  bool
		fallbacks uint64
	}{{repairReplayOps, true, 0}, {repairReplayOps + 1, false, 1}} {
		t.Run(fmt.Sprintf("ops=%d", tc.ops), func(t *testing.T) {
			e := New(twoRoutesSharded(t, 1, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)}), Options{})
			defer e.Close()
			opts := core.Options{K: 1}
			if _, err := e.RkNNT(queryY0, opts); err != nil {
				t.Fatal(err)
			}
			// One removal of a cached result, then adds alternating between
			// endpoints nearer the query than route 1 (results) and far ones.
			batch := []writeOp{{kind: opRemoveTransition, id: 7, done: make(chan opResult, 1)}}
			for i := 1; i < tc.ops; i++ {
				y := 1 + 80*float64(i%2)
				tr := model.Transition{ID: model.TransitionID(1000 + i), O: geo.Pt(float64(i%10), y), D: geo.Pt(float64(i%7), y)}
				batch = append(batch, writeOp{kind: opAddTransition, t: tr, done: make(chan opResult, 1)})
			}
			if len(batch) > journalOpCap {
				t.Fatalf("%d ops overflow the shard journal", len(batch))
			}
			budgetBefore := e.mx.repairFallbackBudget.Load()
			e.pipes[0].applyShard(batch)
			for _, op := range batch {
				if r := <-op.done; r.err != nil {
					t.Fatal(r.err)
				}
			}
			got, err := e.RkNNT(queryY0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Repaired != tc.repaired {
				t.Errorf("Repaired = %v after %d missed ops, want %v", got.Repaired, tc.ops, tc.repaired)
			}
			if d := e.mx.repairFallbackBudget.Load() - budgetBefore; d != tc.fallbacks {
				t.Errorf("budget fallbacks rose by %d, want %d", d, tc.fallbacks)
			}
			want, _, err := func() ([]model.TransitionID, *core.Stats, error) {
				e.rlockAll()
				defer e.runlockAll()
				return core.RkNNT(e.idx, queryY0, core.Options{K: 1, Method: core.BruteForce})
			}()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Transitions, want) {
				t.Fatalf("%d ids after %d missed ops, brute force has %d", len(got.Transitions), tc.ops, len(want))
			}
		})
	}
}

// TestRepairConcurrentSharedBatch hammers one journal batch per shard
// from many goroutines at once: 32 cached entries, at two k values, are
// all stale by the same commit and are read concurrently, so their
// replays race to fill the batch's radius memo. Every repaired answer
// must equal a fresh computation, and the memo must have been filled
// once per k — two RR-tree probes per added transition per k, however
// many entries replayed it. With the radius plane at one of the two k the
// committing writer pays that k's probes and hands the radii to the
// batch, so the replays probe only for the other; with no plane the first
// replays fill the memo lazily for both, as before planes. Run with -race.
func TestRepairConcurrentSharedBatch(t *testing.T) {
	t.Run("plane", func(t *testing.T) { testRepairConcurrentSharedBatch(t, true) })
	t.Run("lazy", func(t *testing.T) { testRepairConcurrentSharedBatch(t, false) })
}

func testRepairConcurrentSharedBatch(t *testing.T, plane bool) {
	e := New(shardedTestIndex(t, 2), Options{})
	defer e.Close()
	rng := rand.New(rand.NewSource(41))
	indexed := 0
	if plane {
		if !e.setPlane(2) {
			t.Fatal("plane build abandoned")
		}
		indexed = 1
	}
	seedTs := make([]model.Transition, 40)
	for i := range seedTs {
		seedTs[i] = model.Transition{
			ID: model.TransitionID(i + 1),
			O:  geo.Pt(rng.Float64()*50, rng.Float64()*50),
			D:  geo.Pt(rng.Float64()*50, rng.Float64()*50),
		}
	}
	for _, err := range e.AddTransitions(seedTs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	type read struct {
		q    []geo.Point
		opts core.Options
	}
	var reads []read
	for i := 0; i < planeAdmitAfter-1; i++ { // one short of earning k a plane
		q := []geo.Point{geo.Pt(rng.Float64()*50, rng.Float64()*50), geo.Pt(rng.Float64()*50, rng.Float64()*50)}
		reads = append(reads, read{q, core.Options{K: 2}}, read{q, core.Options{K: 5, Semantics: core.Semantics(i % 2)}})
	}
	for _, r := range reads {
		if _, err := e.RkNNT(r.q, r.opts); err != nil { // prime the cache
			t.Fatal(err)
		}
	}

	// One commit per shard pipeline: each shard's journal gains exactly
	// one batch (the ops of one AddTransitions call coalesce per shard
	// only when queued together, so drive the pipelines directly).
	adds := make([][]writeOp, 2)
	for i := 0; i < 24; i++ {
		tr := model.Transition{
			ID: model.TransitionID(1000 + i),
			O:  geo.Pt(rng.Float64()*50, rng.Float64()*50),
			D:  geo.Pt(rng.Float64()*50, rng.Float64()*50),
		}
		s := e.idx.HomeShard(tr.ID)
		adds[s] = append(adds[s], writeOp{kind: opAddTransition, t: tr, done: make(chan opResult, 1)})
	}
	probesBefore := e.mx.radiusProbes.Load()
	for s, batch := range adds {
		e.pipes[s].applyShard(batch)
		for _, op := range batch {
			if r := <-op.done; r.err != nil {
				t.Fatal(r.err)
			}
		}
	}
	if got, want := e.mx.radiusProbes.Load()-probesBefore, uint64(24*2*indexed); got != want {
		t.Errorf("%d radius probes committing 24 adds with %d plane(s), want %d", got, indexed, want)
	}
	probesBefore = e.mx.radiusProbes.Load()
	repairsBefore := e.EngineStats().CacheRepairs

	var wg sync.WaitGroup
	for i := range reads {
		wg.Add(1)
		go func(r read) {
			defer wg.Done()
			got, err := e.RkNNT(r.q, r.opts)
			if err != nil {
				t.Error(err)
				return
			}
			if !got.Repaired {
				t.Errorf("%+v: stale hit was not repaired", r.opts)
			}
			want, _, err := func() ([]model.TransitionID, *core.Stats, error) {
				e.rlockAll()
				defer e.runlockAll()
				return core.RkNNT(e.idx, r.q, core.Options{K: r.opts.K, Semantics: r.opts.Semantics, Method: core.BruteForce})
			}()
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Transitions, want) && len(got.Transitions)+len(want) > 0 {
				t.Errorf("%+v: repaired %v != fresh %v", r.opts, got.Transitions, want)
			}
		}(reads[i])
	}
	wg.Wait()
	if got := e.EngineStats().CacheRepairs - repairsBefore; got != uint64(len(reads)) {
		t.Errorf("%d repairs for %d stale reads", got, len(reads))
	}
	// The memo is filled once per k without a plane; the plane's k came
	// filled from the writer.
	if got, want := e.mx.radiusProbes.Load()-probesBefore, uint64(24*2*(2-indexed)); got != want {
		t.Errorf("%d radius probes replaying 24 adds at 2 k values, want %d", got, want)
	}
}
