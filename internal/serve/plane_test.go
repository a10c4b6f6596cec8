package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/planner"
)

// bruteForce answers q by definition over the engine's current index.
func bruteForce(t testing.TB, e *Engine, q []geo.Point, opts core.Options) []model.TransitionID {
	t.Helper()
	opts.Method = core.BruteForce
	e.rlockAll()
	defer e.runlockAll()
	ids, _, err := core.RkNNT(e.idx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func sameIDs(a, b []model.TransitionID) bool {
	return len(a)+len(b) == 0 || reflect.DeepEqual(a, b)
}

func seededEngine(t testing.TB, shards, transitions int) (*Engine, *rand.Rand) {
	t.Helper()
	e := New(shardedTestIndex(t, shards), Options{})
	t.Cleanup(e.Close)
	rng := rand.New(rand.NewSource(int64(90 + shards)))
	ts := make([]model.Transition, transitions)
	for i := range ts {
		ts[i] = model.Transition{
			ID: model.TransitionID(i + 1),
			O:  geo.Pt(rng.Float64()*50, rng.Float64()*50),
			D:  geo.Pt(rng.Float64()*50, rng.Float64()*50),
		}
	}
	for _, err := range e.AddTransitions(ts) {
		if err != nil {
			t.Fatal(err)
		}
	}
	return e, rng
}

func randomQuery(rng *rand.Rand) []geo.Point {
	return []geo.Point{geo.Pt(rng.Float64()*50, rng.Float64()*50), geo.Pt(rng.Float64()*50, rng.Float64()*50)}
}

// waitPlane waits for the background build that traffic triggered: the
// plane is for k and no build is in flight.
func waitPlane(t testing.TB, e *Engine, k int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.planeAdm.mu.Lock()
		building := e.planeAdm.building
		e.planeAdm.mu.Unlock()
		if !building && e.idx.RadiusK() == k {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("radius plane is at k=%d (building=%v), want k=%d", e.idx.RadiusK(), building, k)
		}
		time.Sleep(time.Millisecond)
	}
}

// ask runs one fresh query per call and checks it against brute force;
// it reports whether the plane answered.
func ask(t testing.TB, e *Engine, rng *rand.Rand, opts core.Options) bool {
	t.Helper()
	q := randomQuery(rng)
	res, err := e.RkNNT(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(t, e, q, opts); !sameIDs(res.Transitions, want) {
		t.Fatalf("%+v: %v, want %v", opts, res.Transitions, want)
	}
	return res.Stats.Plane
}

// TestRadiusPlaneBuiltOnce races queries at one k, singles and batches
// together, past the admission threshold: every answer is correct — the
// early ones from the pipeline, nobody waits for a build — and exactly
// one plane build results. Run with -race -count=10.
func TestRadiusPlaneBuiltOnce(t *testing.T) {
	e, rng := seededEngine(t, 2, 300)
	queries := make([][]geo.Point, 3*planeAdmitAfter)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}
	opts := core.Options{K: 3}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []geo.Point) {
			defer wg.Done()
			var got []model.TransitionID
			if i%4 == 3 {
				res, err := e.RkNNTBatch([][]geo.Point{q, queries[(i+1)%len(queries)]}, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got = res[0].Transitions
			} else {
				res, err := e.RkNNT(q, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got = res.Transitions
			}
			if want := bruteForce(t, e, q, opts); !sameIDs(got, want) {
				t.Errorf("query %d: %v, want %v", i, got, want)
			}
		}(i, q)
	}
	wg.Wait()
	waitPlane(t, e, 3)
	if builds := e.mx.planeBuild.Snapshot().Count; builds != 1 {
		t.Errorf("%d plane builds for concurrent queries at one k, want 1", builds)
	}
	if e.mx.pathPipeline.Load() < planeAdmitAfter {
		t.Errorf("only %d queries ran the pipeline: somebody built a plane before k had earned it", e.mx.pathPipeline.Load())
	}
	if !ask(t, e, rng, opts) {
		t.Error("a query after the build did not take the plane path")
	}
	e.rlockAll()
	err := e.idx.CheckRadii()
	e.runlockAll()
	if err != nil {
		t.Fatal(err)
	}
}

// askBatch sends one batch request of n fresh queries and checks its
// first member against brute force.
func askBatch(t testing.TB, e *Engine, rng *rand.Rand, n int, opts core.Options) {
	t.Helper()
	qs := make([][]geo.Point, n)
	for i := range qs {
		qs[i] = randomQuery(rng)
	}
	res, err := e.RkNNTBatch(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(t, e, qs[0], opts); !sameIDs(res[0].Transitions, want) {
		t.Fatalf("batch %+v: %v, want %v", opts, res[0].Transitions, want)
	}
}

// TestRadiusPlaneAdmission pins who gets the plane. A k asked for once, or
// a large k asked for all window long, never does — no build starts, so
// no writer can be stalled by one and the slot stays free for real
// traffic. BruteForce and ablation queries do not count, nor does a batch
// served from the cache. A k earns the plane with planeAdmitAfter
// executed requests — single queries or batches, one count per batch
// however many members it carries; an incumbent keeps it against an
// equal rival, loses it to one that dominates a window, and is dropped
// when a window of batches belongs to k beyond maxPlaneK.
func TestRadiusPlaneAdmission(t *testing.T) {
	e, rng := seededEngine(t, 2, 120)
	// Thousands of queries: check one in sixteen against brute force.
	asked := 0
	ask := func(t testing.TB, e *Engine, rng *rand.Rand, opts core.Options) bool {
		t.Helper()
		if asked++; asked%16 == 0 {
			return ask(t, e, rng, opts)
		}
		res, err := e.RkNNT(randomQuery(rng), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Plane
	}
	idle := func(label string) {
		t.Helper()
		e.planeAdm.mu.Lock()
		building := e.planeAdm.building
		e.planeAdm.mu.Unlock()
		if building || e.idx.RadiusK() != 0 || e.mx.planeBuild.Snapshot().Count != 0 {
			t.Fatalf("%s: building=%v, plane k=%d, %d builds", label, building, e.idx.RadiusK(), e.mx.planeBuild.Snapshot().Count)
		}
	}
	for _, k := range []int{7, 9, 11, 13, 301} { // strays, one query each
		ask(t, e, rng, core.Options{K: k})
	}
	idle("after one-off k values")
	for i := 0; i < planeWindow+10; i++ { // a large k, insistently: more than a window
		if i%2 == 0 {
			ask(t, e, rng, core.Options{K: maxPlaneK + 1})
		} else if _, err := e.RkNNTBatch([][]geo.Point{randomQuery(rng)}, core.Options{K: 300}); err != nil {
			t.Fatal(err)
		}
	}
	idle("after a window of queries at k beyond maxPlaneK")
	for i := 0; i < 2*planeAdmitAfter; i++ { // the pipeline's own measurements
		ask(t, e, rng, core.Options{K: 4, Method: core.BruteForce})
		ask(t, e, rng, core.Options{K: 4, NoNList: true})
		askBatch(t, e, rng, 2, core.Options{K: 4, Method: core.BruteForce})
		askBatch(t, e, rng, 2, core.Options{K: 4, NoCrossover: true})
	}
	idle("after BruteForce and ablation queries and batches")
	// A batch answered from the cache executed nothing: asked again and
	// again it stays one count.
	cached := make([][]geo.Point, 2*planeAdmitAfter)
	for i := range cached {
		cached[i] = randomQuery(rng)
	}
	for i := 0; i < 2*planeAdmitAfter; i++ {
		res, err := e.RkNNTBatch(cached, core.Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !res[len(res)-1].Cached {
			t.Fatalf("repeat %d of a batch was not served from the cache", i)
		}
	}
	idle("after a batch served from the cache")
	// Batches count one each, however many members they carry.
	for i := 0; i < planeAdmitAfter-1; i++ {
		askBatch(t, e, rng, 2*planeAdmitAfter, core.Options{K: 4})
		if i == 0 {
			idle("after one batch at an eligible k")
		}
	}
	idle("one batch short of admission")
	askBatch(t, e, rng, 2*planeAdmitAfter, core.Options{K: 4})
	waitPlane(t, e, 4)

	// An equal rival does not take the plane from the incumbent...
	for i := 0; i < planeWindow; i++ {
		ask(t, e, rng, core.Options{K: 4 + 2*(i%2)})
	}
	waitPlane(t, e, 4)
	// ...a stray in a window of incumbent traffic certainly does not...
	ask(t, e, rng, core.Options{K: 9})
	for i := 0; i < planeWindow; i++ {
		if !ask(t, e, rng, core.Options{K: 4}) {
			t.Fatal("incumbent k=4 ran the pipeline")
		}
	}
	waitPlane(t, e, 4)
	// ...a k that owns a whole window does, and the old k falls back to
	// the pipeline, still correct.
	for i := 0; i < planeWindow; i++ {
		ask(t, e, rng, core.Options{K: 6})
	}
	waitPlane(t, e, 6)
	if ask(t, e, rng, core.Options{K: 4}) || !ask(t, e, rng, core.Options{K: 6}) {
		t.Fatal("after the plane moved to k=6: wrong paths")
	}
	// Batch traffic moves beyond maxPlaneK for good: the plane is
	// dropped, and writers stop paying for it.
	for i := 0; i < planeWindow; i++ {
		askBatch(t, e, rng, 2, core.Options{K: 50})
	}
	waitPlane(t, e, 0)
	probes := e.mx.radiusProbes.Load()
	if err := e.AddTransition(model.Transition{ID: 9001, O: geo.Pt(1, 1), D: geo.Pt(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := e.mx.radiusProbes.Load() - probes; got != 0 {
		t.Fatalf("%d radius probes for an arrival with no plane", got)
	}
	if builds := e.mx.planeBuild.Snapshot().Count; builds != 2 {
		t.Fatalf("%d plane builds over the whole history, want 2 (k=4, k=6)", builds)
	}
}

// TestRkNNTBatchOnEarnedPlane: batch traffic alone earns its k the plane,
// and from then on every member a batch executes is answered by descent
// and equals brute force, for ∃, ∀ and a time window.
func TestRkNNTBatchOnEarnedPlane(t *testing.T) {
	e, rng := seededEngine(t, 2, 300)
	for i := 0; i < 200; i++ { // timed transitions for the window
		tr := model.Transition{ID: model.TransitionID(10_000 + i), O: randomQuery(rng)[0], D: randomQuery(rng)[0], Time: int64(1 + i)}
		if err := e.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < planeAdmitAfter; i++ {
		askBatch(t, e, rng, 4, core.Options{K: 3})
	}
	waitPlane(t, e, 3)
	for _, opts := range []core.Options{
		{K: 3},
		{K: 3, Semantics: core.ForAll},
		{K: 3, Method: core.FilterRefine, TimeFrom: 40, TimeTo: 160},
	} {
		qs := make([][]geo.Point, 24)
		for i := range qs {
			qs[i] = randomQuery(rng)
		}
		qs[5] = qs[2] // an intra-batch duplicate shares its first occurrence
		res, err := e.RkNNTBatch(qs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !r.Shared && !r.Stats.Plane {
				t.Fatalf("%+v member %d: executed by the pipeline beside a plane at its k", opts, i)
			}
			if want := bruteForce(t, e, qs[i], opts); !sameIDs(r.Transitions, want) {
				t.Fatalf("%+v member %d: %v, want %v", opts, i, r.Transitions, want)
			}
		}
	}
	if builds := e.mx.planeBuild.Snapshot().Count; builds != 1 {
		t.Fatalf("%d plane builds, want 1", builds)
	}
}

// TestRadiusPlaneBuildLetsWritersThrough: while the build probes — all of
// its cost — shard writers commit. The hook runs inside the build, after
// each probe chunk and under whatever locks the build holds there; a write
// submitted from it would wait forever if those included a shard lock.
// The transitions it adds arrive mid-build, so the install must probe
// them itself for the plane to come out exact.
func TestRadiusPlaneBuildLetsWritersThrough(t *testing.T) {
	e, rng := seededEngine(t, 2, 3*planeProbeChunk) // 6 chunks of endpoints
	next := model.TransitionID(100_000)
	e.planeAdm.probeHook = func() {
		next++
		done := make(chan error, 1)
		go func() {
			done <- e.AddTransition(model.Transition{ID: next, O: geo.Pt(rng.Float64()*50, rng.Float64()*50), D: geo.Pt(rng.Float64()*50, rng.Float64()*50)})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Error("a shard write did not commit while the plane build was probing")
		}
	}
	if !e.setPlane(5) {
		t.Fatal("build abandoned")
	}
	if written := int(next - 100_000); written < 5 {
		t.Fatalf("only %d writes ran inside the build", written)
	}
	e.planeAdm.probeHook = nil
	e.rlockAll()
	err := e.idx.CheckRadii()
	e.runlockAll()
	if err != nil {
		t.Fatal(err)
	}
	if !ask(t, e, rng, core.Options{K: 5}) {
		t.Fatal("no plane path after the build")
	}

	// A route change mid-build voids it: the plane stays as it was. The
	// change needs structMu.W, so it waits for the chunk in progress — not
	// for the build — and the build's next chunk waits for it.
	routeDone := make(chan error, 1)
	e.planeAdm.probeHook = func() {
		e.planeAdm.probeHook = nil
		go func() {
			routeDone <- e.AddRoute(model.Route{ID: 4242, Stops: []model.StopID{801, 802}, Pts: []geo.Point{geo.Pt(3, 3), geo.Pt(40, 40)}})
		}()
		for e.structMu.TryRLock() { // fails once the writer is queued
			e.structMu.RUnlock()
			time.Sleep(100 * time.Microsecond)
		}
	}
	if e.setPlane(7) || e.idx.RadiusK() != 5 {
		t.Fatalf("a build the route set changed under was installed (plane k=%d)", e.idx.RadiusK())
	}
	if err := <-routeDone; err != nil {
		t.Fatal(err)
	}
	e.rlockAll()
	err = e.idx.CheckRadii()
	e.runlockAll()
	if err != nil {
		t.Fatal(err)
	}
}

// TestRadiusPlaneOtherKFallsBack: with the plane at one k, queries at it
// are served by descent and every other k by the paper's pipeline —
// correctly, before and after writes and a route change — and the plane
// stays exact throughout.
func TestRadiusPlaneOtherKFallsBack(t *testing.T) {
	e, rng := seededEngine(t, 2, 300)
	if !e.setPlane(3) {
		t.Fatal("build abandoned")
	}
	q := randomQuery(rng)
	round := func(label string) {
		t.Helper()
		for _, k := range []int{1, 2, 3, 4, 5} {
			for _, sem := range []core.Semantics{core.Exists, core.ForAll} {
				o := core.Options{K: k, Semantics: sem}
				res, err := e.RkNNT(q, o)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteForce(t, e, q, o); !sameIDs(res.Transitions, want) {
					t.Fatalf("%s k=%d %v: %v, want %v", label, k, sem, res.Transitions, want)
				}
				if !res.Cached && !res.Repaired && res.Stats.Plane != (k == 3) {
					t.Fatalf("%s k=%d: plane path %v", label, k, res.Stats.Plane)
				}
			}
		}
	}
	round("cold")
	for i := 0; i < 40; i++ {
		tr := model.Transition{ID: model.TransitionID(5000 + i), O: q[i%2], D: geo.Pt(rng.Float64()*50, rng.Float64()*50)}
		if err := e.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := e.RemoveTransition(model.TransitionID(1 + i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	round("after writes")
	if err := e.AddRoute(model.Route{ID: 777, Stops: []model.StopID{901, 902}, Pts: []geo.Point{q[0], q[1]}}); err != nil {
		t.Fatal(err)
	}
	round("after a route change")
	e.rlockAll()
	err := e.idx.CheckRadii()
	e.runlockAll()
	if err != nil {
		t.Fatal(err)
	}
	if e.idx.RadiusK() != 3 {
		t.Fatalf("the plane moved to k=%d under 30 queries", e.idx.RadiusK())
	}
}

// flightCallers counts the goroutines inside flightGroup.Do: the one
// running the call and those waiting for its result.
func flightCallers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*flightGroup).Do(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPrecomputeUsesPlane: plan precomputes earn the planner's k the
// plane like single queries do — one count per precompute executed. A
// plan served from a current precompute, the callers that waited on
// another request's precompute, and BruteForce precomputes do not count;
// neither do the network vertices a precompute queries. Fifteen
// precomputes, each after a write, start no build; the sixteenth does,
// and the next precompute descends the plane. The per-vertex RkNNT sets
// are the brute force's on either path.
func TestPrecomputeUsesPlane(t *testing.T) {
	city, x := smallCity(t)
	e := New(x, Options{Network: city.Graph})
	defer e.Close()
	const k = 3
	n := city.Graph.NumVertices()
	next := model.TransitionID(70_000)
	write := func() {
		t.Helper()
		next++
		tr := model.Transition{ID: next, O: city.Graph.Point(int32(next) % int32(n)), D: city.Graph.Point(int32(next/3) % int32(n))}
		if err := e.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	precompute := func(method core.Method) *planner.Precomputed {
		t.Helper()
		pre, err := e.precomputed(k, method)
		if err != nil {
			t.Fatal(err)
		}
		return pre
	}
	counted := func(label string, want uint32) {
		t.Helper()
		e.planeAdm.mu.Lock()
		got, building := e.planeAdm.counts[k], e.planeAdm.building
		e.planeAdm.mu.Unlock()
		if got != want || building || e.idx.RadiusK() != 0 {
			t.Fatalf("%s: %d counts at k=%d, want %d (building=%v, plane k=%d)", label, got, k, want, building, e.idx.RadiusK())
		}
	}
	check := func(label string, pre *planner.Precomputed) {
		t.Helper()
		e.rlockAll()
		defer e.runlockAll()
		for v := 0; v < n; v++ {
			want, err := core.EndpointMasks(e.idx, []geo.Point{city.Graph.Point(int32(v))}, k, core.BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			if got := pre.VertexMasks(int32(v)); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, vertex %d: masks %v, brute force %v", label, v, got, want)
			}
		}
	}

	for i := 0; i < 2*planeAdmitAfter; i++ {
		write()
		precompute(core.BruteForce)
	}
	counted("after BruteForce precomputes", 0)

	write()
	pre := precompute(core.DivideConquer)
	check("pipeline", pre)
	counted("after one precompute", 1)
	for i := 0; i < 3; i++ {
		if precompute(core.DivideConquer) != pre {
			t.Fatal("a current precompute was not served from the cache")
		}
	}
	counted("after re-serving a current precompute", 1)

	// Eight identical precomputes in flight at once: the writer lock holds
	// the one that runs until all eight have joined the flight.
	write()
	const callers = 8
	got := make([]*planner.Precomputed, callers)
	var wg sync.WaitGroup
	e.structMu.Lock()
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pre, err := e.precomputed(k, core.DivideConquer)
			if err != nil {
				t.Error(err)
			}
			got[i] = pre
		}(i)
	}
	for flightCallers() < callers {
		time.Sleep(100 * time.Microsecond)
	}
	e.structMu.Unlock()
	wg.Wait()
	for _, p := range got {
		if p != got[0] {
			t.Fatal("concurrent identical precomputes did not share one")
		}
	}
	counted("after eight concurrent identical precomputes", 2)

	for i := 3; i < planeAdmitAfter; i++ {
		write()
		precompute(core.DivideConquer)
		counted(fmt.Sprintf("after %d precomputes", i), uint32(i))
	}
	write()
	precompute(core.DivideConquer)
	waitPlane(t, e, k)
	write()
	check("plane", precompute(core.DivideConquer)) // staled by the write: recomputed by descent
	if builds := e.mx.planeBuild.Snapshot().Count; builds != 1 {
		t.Fatalf("%d plane builds, want 1", builds)
	}
}

// answerOf builds a cache value holding n result IDs.
func answerOf(n int) *cachedQuery {
	return &cachedQuery{
		res:   &QueryResult{Transitions: make([]model.TransitionID, n)},
		query: make([]geo.Point, 5),
	}
}

// TestCacheByteBudget: never-repeating 1 500-ID answers hold the budget
// however many arrive, a single answer over the whole budget is still
// cached (alone), and a CAS repair that grows an entry is accounted.
func TestCacheByteBudget(t *testing.T) {
	const budget = 1 << 20
	c := newLRUCache(4096, budget, nil, nil)
	per := entryBytes("k0000", answerOf(1500))
	for i := 0; i < 2000; i++ {
		c.Put(fmt.Sprintf("k%04d", i), answerOf(1500))
		if c.bytes > budget {
			t.Fatalf("after %d puts: %d bytes held, budget %d", i+1, c.bytes, budget)
		}
	}
	if want := budget / per; c.Len() != want {
		t.Fatalf("%d entries of %d bytes under a %d budget, want %d", c.Len(), per, budget, want)
	}
	if _, ok := c.Get("k1999"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("k0000"); ok {
		t.Fatal("oldest entry survived 2000 never-repeating puts")
	}

	// One answer larger than the budget: served and cached alone.
	c.Put("huge", answerOf(budget))
	if v, ok := c.Get("huge"); !ok || len(v.(*cachedQuery).res.Transitions) != budget || c.Len() != 1 {
		t.Fatalf("over-budget answer: cached=%v, %d entries", ok, c.Len())
	}
	c.Put("small", answerOf(10))
	if _, ok := c.Get("small"); !ok || c.Len() != 1 {
		t.Fatalf("after the over-budget answer aged out: %d entries", c.Len())
	}

	// A CAS repair that grows an entry is re-accounted.
	c.Purge()
	if c.bytes != 0 {
		t.Fatalf("%d bytes after Purge", c.bytes)
	}
	olds := make([]*cachedQuery, 100)
	for i := range olds {
		olds[i] = answerOf(1500)
		c.Put(fmt.Sprintf("r%03d", i), olds[i])
	}
	before := c.bytes
	c.Update("r099", olds[99], answerOf(3000))
	if c.bytes != before+4*1500 {
		t.Fatalf("Update accounted %d bytes, want %d", c.bytes-before, 4*1500)
	}

	// The sharded cache splits the fixed total across its ways.
	sc := newShardedCache(4096, 8, nil, nil)
	for _, s := range sc.shards {
		if s.budget != cacheByteBudget/8 {
			t.Fatalf("way budget %d, want %d", s.budget, cacheByteBudget/8)
		}
	}
}
