package serve

// Differential proof for the mmap serving path: an engine serving
// straight out of a memory-mapped snapshot must be observationally
// identical to one that materialized the same snapshot on the heap —
// through 200 steps of transition churn (adds, removes, sliding-window
// expiry), route changes (forcing structural COW), and periodic
// incremental checkpoints. Every query class is compared: RkNNT under
// both semantics and with a time window, kNN over routes, and network
// planning. The radius plane (for one of the three k values; it moves to
// another mid-churn) is built while every arena is still file-backed —
// building must not materialise anything — so each shard's first write
// then copies the arena out from under a live plane; the plane invariant
// (index.CheckRadii) is checked on both engines after every step. The test finishes by proving the checkpoint
// chain the mmap engine wrote reloads — mapped and heap — into the exact
// canonical bytes of the live engine's state (planes are heap-side and
// never reach the arena).

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/planner"
)

func TestMmapHeapDifferentialChurn(t *testing.T) {
	city, x := smallCity(t)
	vertexOf := make(map[model.StopID]graph.VertexID)
	for i := 0; i < city.Graph.NumVertices(); i++ {
		vertexOf[model.StopID(i)] = graph.VertexID(i)
	}
	path := filepath.Join(t.TempDir(), "city.arena")
	seed := New(x, Options{Network: city.Graph, VertexOf: vertexOf})
	if _, err := seed.Checkpoint(path, false); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	open := func(useMmap bool) (*Engine, *SnapshotFile) {
		sf, err := OpenSnapshotFile(path, SnapshotLoadOptions{Mmap: useMmap})
		if err != nil {
			t.Fatalf("open(mmap=%v): %v", useMmap, err)
		}
		e := New(sf.Index, Options{
			Network: sf.Network, VertexOf: sf.VertexOf, InitialEpochs: sf.Epochs,
		})
		return e, sf
	}
	me, msf := open(true)
	he, hsf := open(false)
	defer msf.Close()
	defer hsf.Close()
	defer me.Close()
	defer he.Close()
	if !me.SeedCheckpoint(msf.CheckpointSeed()) {
		t.Fatal("checkpoint seed rejected on a freshly booted engine")
	}
	if msf.Mapped() && me.idx.FileBackedArenas() == 0 {
		t.Fatal("mmap boot produced no file-backed arenas")
	}

	rng := rand.New(rand.NewSource(2024))
	queries := make([][]geo.Point, 8)
	for i := range queries {
		queries[i] = []geo.Point{
			geo.Pt(rng.Float64()*12, rng.Float64()*12),
			geo.Pt(rng.Float64()*12, rng.Float64()*12),
		}
	}
	optsSet := []core.Options{
		{K: 3},
		{K: 6, Semantics: core.ForAll},
		{K: 4, TimeFrom: 1, TimeTo: 1 << 40},
	}

	// Build the plane (k = 3) over the untouched, view-backed trees; the
	// other two k values keep running the pipeline beside it.
	backed := me.idx.FileBackedArenas()
	for _, e := range []*Engine{me, he} {
		if !e.setPlane(optsSet[0].K) {
			t.Fatal("plane build abandoned")
		}
		for i, o := range optsSet {
			res, err := e.RkNNT(queries[0], o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Plane != (i == 0) {
				t.Fatalf("%+v: plane path %v", o, res.Stats.Plane)
			}
		}
	}
	if got := me.idx.FileBackedArenas(); got != backed {
		t.Fatalf("building the plane materialised arenas: %d file-backed before, %d after", backed, got)
	}
	checkPlanes := func(step int) {
		t.Helper()
		for _, e := range []*Engine{me, he} {
			e.rlockAll()
			err := e.idx.CheckRadii()
			e.runlockAll()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	checkPlanes(-1)

	var live []model.TransitionID
	nextID := model.TransitionID(100000)
	nextRoute := model.RouteID(100000)
	now := int64(1000)
	newStops := make([]geo.Point, 8)
	for i := range newStops {
		newStops[i] = geo.Pt(rng.Float64()*12, rng.Float64()*12)
	}
	both := func(step int, what string, fn func(e *Engine) (any, error)) {
		t.Helper()
		a, err := fn(me)
		if err != nil {
			t.Fatalf("step %d %s (mmap): %v", step, what, err)
		}
		b, err := fn(he)
		if err != nil {
			t.Fatalf("step %d %s (heap): %v", step, what, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d %s diverged:\n mmap: %#v\n heap: %#v", step, what, a, b)
		}
	}

	for step := 0; step < 200; step++ {
		switch op := rng.Intn(20); {
		case op < 10 || len(live) == 0:
			tr := model.Transition{
				ID: nextID,
				O:  geo.Pt(rng.Float64()*12, rng.Float64()*12),
				D:  geo.Pt(rng.Float64()*12, rng.Float64()*12),
			}
			if rng.Intn(2) == 0 {
				tr.Time = now
				now += 25
			}
			nextID++
			both(step, "add", func(e *Engine) (any, error) { return nil, e.AddTransition(tr) })
			live = append(live, tr.ID)
		case op < 14:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			both(step, "remove", func(e *Engine) (any, error) {
				existed, err := e.RemoveTransition(id)
				return existed, err
			})
		case op < 16:
			cutoff := now - int64(rng.Intn(500))
			both(step, "expire", func(e *Engine) (any, error) {
				n, err := e.ExpireTransitionsBefore(cutoff)
				return n, err
			})
			kept := live[:0]
			for _, id := range live {
				if me.Transition(id) != nil {
					kept = append(kept, id)
				}
			}
			live = kept
		case op < 18:
			// Structural churn: forces the RR-tree (and, transitively,
			// cached planner state) through the COW path. A stop ID names
			// one location — the crossover credit relies on it — so the
			// new routes draw their stops from a fixed table.
			s1, s2 := rng.Intn(len(newStops)), rng.Intn(len(newStops))
			route := model.Route{
				ID:    nextRoute,
				Stops: []model.StopID{model.StopID(200000 + s1), model.StopID(200000 + s2)},
				Pts:   []geo.Point{newStops[s1], newStops[s2]},
			}
			nextRoute++
			both(step, "addroute", func(e *Engine) (any, error) { return nil, e.AddRoute(route) })
		default:
			// Periodic incremental checkpoint from the mmap engine; the
			// heap engine is the pure oracle and never checkpoints.
			if _, err := me.Checkpoint(path, true); err != nil {
				t.Fatalf("step %d incremental checkpoint: %v", step, err)
			}
		}

		if step == 120 { // move the plane mid-churn, after copy-on-write
			for _, e := range []*Engine{me, he} {
				if !e.setPlane(optsSet[1].K) {
					t.Fatal("plane build abandoned")
				}
			}
		}
		checkPlanes(step)
		q := queries[rng.Intn(len(queries))]
		opts := optsSet[rng.Intn(len(optsSet))]
		both(step, "rknnt", func(e *Engine) (any, error) {
			res, err := e.RkNNT(q, opts)
			if err != nil {
				return nil, err
			}
			// Cached, repaired, descended or piped: the definition is the judge.
			if want := bruteForce(t, e, q, opts); !sameIDs(res.Transitions, want) {
				t.Fatalf("step %d %+v (cached=%v repaired=%v plane=%v): engine %v, brute force %v", step, opts, res.Cached, res.Repaired, res.Stats.Plane, res.Transitions, want)
			}
			return res.Transitions, nil
		})
		p := geo.Pt(rng.Float64()*12, rng.Float64()*12)
		both(step, "knn", func(e *Engine) (any, error) {
			ids, err := e.KNNRoutes(p, 3)
			return ids, err
		})
		if step%25 == 24 {
			nv := city.Graph.NumVertices()
			s, d := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
			if s == d {
				d = graph.VertexID((int(d) + 1) % nv)
			}
			// A modest budget: enough to reach d with slack, small enough
			// that path enumeration stays cheap.
			both(step, "plan", func(e *Engine) (any, error) {
				res, ok, err := e.PlanVertices(s, d, 16, 3, core.FilterRefine, planner.Options{})
				if err != nil || !ok {
					return ok, err
				}
				return *res, nil
			})
		}
	}

	if msf.Mapped() && me.idx.FileBackedArenas() >= backed {
		t.Fatalf("200 steps of writes left all %d arenas file-backed: no copy-on-write happened under the plane", backed)
	}

	// Seal the chain with a final delta, then prove load→save canonical
	// byte-identity: the merged chain must reassemble (mapped or not)
	// into engines whose full snapshots are byte-identical to the live
	// mmap engine's.
	if _, err := me.Checkpoint(path, true); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := me.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{true, false} {
		re, rsf := open(useMmap)
		var got bytes.Buffer
		if err := re.WriteSnapshot(&got); err != nil {
			t.Fatalf("reload(mmap=%v) save: %v", useMmap, err)
		}
		re.Close()
		rsf.Close()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("reload(mmap=%v): chain reassembly is not byte-identical to the live engine (%d vs %d bytes)",
				useMmap, got.Len(), want.Len())
		}
	}
}
