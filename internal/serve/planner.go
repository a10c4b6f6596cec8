package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/planner"
)

// plannerKey identifies one precomputation (per-vertex RkNNT sets +
// all-pairs distances) by its parameters.
type plannerKey struct {
	k      int
	method core.Method
}

type plannerEntry struct {
	epochs EpochVec // exact vector the precomputation is valid at
	pre    *planner.Precomputed
}

// ErrNoNetwork is returned by Plan when the engine was built without a
// bus-network graph.
var ErrNoNetwork = fmt.Errorf("serve: no network attached (Options.Network)")

// Plan answers a MaxRkNNT/MinRkNNT planning query between two stops.
// The expensive precomputation (Algorithm 5) is cached per (k, method)
// and refreshed on the first plan after the index epoch moves, so
// repeated planning against a quiet index pays it once.
func (e *Engine) Plan(srcStop, dstStop model.StopID, tau float64, k int, method core.Method, opts planner.Options) (*planner.Result, bool, error) {
	if e.opts.Network == nil {
		return nil, false, ErrNoNetwork
	}
	s, ok := e.opts.VertexOf[srcStop]
	if !ok {
		return nil, false, fmt.Errorf("serve: unknown source stop %d", srcStop)
	}
	t, ok := e.opts.VertexOf[dstStop]
	if !ok {
		return nil, false, fmt.Errorf("serve: unknown target stop %d", dstStop)
	}
	pre, err := e.precomputed(k, method)
	if err != nil {
		return nil, false, err
	}
	return pre.Plan(s, t, tau, opts)
}

// PlanVertices is Plan addressed by network vertex IDs directly.
func (e *Engine) PlanVertices(s, t graph.VertexID, tau float64, k int, method core.Method, opts planner.Options) (*planner.Result, bool, error) {
	if e.opts.Network == nil {
		return nil, false, ErrNoNetwork
	}
	n := e.opts.Network.NumVertices()
	if int(s) < 0 || int(s) >= n || int(t) < 0 || int(t) >= n {
		return nil, false, fmt.Errorf("serve: vertex out of range [0,%d)", n)
	}
	pre, err := e.precomputed(k, method)
	if err != nil {
		return nil, false, err
	}
	return pre.Plan(s, t, tau, opts)
}

// precomputed returns a planner precomputation that is current for the
// engine's epoch, computing it if needed: a stale entry at the same key
// is refreshed (its masks recomputed, Mψ kept), and only a key with no
// entry pays the all-pairs distances too. Identical concurrent requests
// share one computation via the flight group. Each computation executed
// counts once towards the radius plane at k, like one executed query.
func (e *Engine) precomputed(k int, method core.Method) (*planner.Precomputed, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: k must be >= 1, got %d", k)
	}
	key := plannerKey{k: k, method: method}
	e.planMu.Lock()
	if ent, ok := e.plans[key]; ok && e.vecIsCurrent(ent.epochs) {
		e.planMu.Unlock()
		return ent.pre, nil
	}
	e.planMu.Unlock()

	v, err, _ := e.flight.Do(e.planFlightKey(k, method), func() (any, error) {
		e.planMu.Lock()
		stale := e.plans[key]
		e.planMu.Unlock()
		// The vector is re-read under the read locks (which hold every
		// writer out, making it exact), so the entry is labelled with
		// the vector of the snapshot actually precomputed over — not a
		// stale pre-lock value that would make this expensive
		// computation dead on arrival.
		pre, cur, err := func() (*planner.Precomputed, EpochVec, error) {
			e.rlockAll()
			defer e.runlockAll()
			var pre *planner.Precomputed
			var err error
			if stale != nil {
				pre, err = stale.pre.Refresh(e.idx, method)
			} else {
				pre, err = planner.Precompute(e.idx, e.opts.Network, k, method)
			}
			return pre, e.epochVecQuiescent(), err
		}()
		if err != nil {
			return nil, err
		}
		e.planMu.Lock()
		e.storePlanLocked(key, &plannerEntry{epochs: cur, pre: pre})
		e.planMu.Unlock()
		e.notePlaneDemand(core.Options{K: k, Method: method})
		return pre, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*planner.Precomputed), nil
}

// maxPlannerEntries bounds the precomputation cache: entries are
// O(vertices * transitions) big and (k, method) is client-controlled,
// so an unbounded map would be a memory-exhaustion vector.
const maxPlannerEntries = 4

func (e *Engine) storePlanLocked(key plannerKey, ent *plannerEntry) {
	// A precompute that raced a write may arrive labelled with an older
	// vector; never let it displace fresher work. Vectors are ordered by
	// their scalar sum, which every commit advances by at least one.
	if old, ok := e.plans[key]; ok && old.epochs.Sum() >= ent.epochs.Sum() {
		return
	}
	for k2, old := range e.plans {
		if old.epochs.Sum() < ent.epochs.Sum() {
			delete(e.plans, k2) // staler vector: never served again
		}
	}
	if len(e.plans) >= maxPlannerEntries {
		for k2 := range e.plans {
			if k2 != key {
				delete(e.plans, k2)
				break
			}
		}
	}
	e.plans[key] = ent
}
