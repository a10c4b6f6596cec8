package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// Adaptive lazy-repair budget. A stale cache hit is worth repairing
// while the replay (one liveness lookup and two distance compares per
// journaled add, one binary search per removal) costs less than simply
// recomputing the query; both costs are workload- and host-dependent, so
// the cap on replayable ops is learned from measurements rather than
// fixed: budget = recomputeCost / perOpReplayCost, clamped. Until both
// sides have been observed the historical fixed cap applies.
const (
	repairBudgetDefault = repairReplayOps
	repairBudgetMin     = 256
	repairBudgetMax     = 65536
	// repairAlpha is the EWMA smoothing factor for both cost estimates,
	// matching the refine tuner's balance of agility vs outlier noise.
	repairAlpha = 0.2
)

// repairTuner learns the recompute-vs-replay trade. All methods are safe
// for concurrent use; Budget is a single atomic load on the query path.
type repairTuner struct {
	recompute atomic.Uint64 // float64 bits: EWMA nanos of a full recompute
	perOp     atomic.Uint64 // float64 bits: EWMA nanos per replayed journal op
	budget    atomic.Int64
}

func newRepairTuner() *repairTuner {
	rt := &repairTuner{}
	rt.budget.Store(repairBudgetDefault)
	return rt
}

// Budget returns the journal ops a lazy repair may replay before a
// recompute is the cheaper move.
func (rt *repairTuner) Budget() int { return int(rt.budget.Load()) }

// RecomputeNanos returns the current full-recompute cost estimate
// (0 until measured).
func (rt *repairTuner) RecomputeNanos() float64 {
	return math.Float64frombits(rt.recompute.Load())
}

// PerOpNanos returns the current per-replayed-op cost estimate
// (0 until measured).
func (rt *repairTuner) PerOpNanos() float64 {
	return math.Float64frombits(rt.perOp.Load())
}

// ObserveRecompute folds one executed (uncached) query's core processing
// time into the recompute cost estimate.
func (rt *repairTuner) ObserveRecompute(d time.Duration) {
	if d <= 0 {
		return
	}
	ewmaStore(&rt.recompute, float64(d.Nanoseconds()))
	rt.reprice()
}

// ObserveReplay folds one successful repair into the per-op cost
// estimate: ops journal entries (adds radius-checked, removals spliced)
// replayed in elapsed time.
func (rt *repairTuner) ObserveReplay(ops int, elapsed time.Duration) {
	if ops <= 0 || elapsed <= 0 {
		return
	}
	ewmaStore(&rt.perOp, float64(elapsed.Nanoseconds())/float64(ops))
	rt.reprice()
}

func (rt *repairTuner) reprice() {
	rec := math.Float64frombits(rt.recompute.Load())
	per := math.Float64frombits(rt.perOp.Load())
	if rec == 0 || per == 0 {
		return // keep the default until both sides are measured
	}
	b := rec / per
	switch {
	case b < repairBudgetMin:
		rt.budget.Store(repairBudgetMin)
	case b > repairBudgetMax:
		rt.budget.Store(repairBudgetMax)
	default:
		rt.budget.Store(int64(b))
	}
}

// ewmaStore CAS-updates an atomic float64-bits EWMA cell; the first
// observation seeds it directly.
func ewmaStore(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := v
		if old != 0 {
			next = (1-repairAlpha)*math.Float64frombits(old) + repairAlpha*v
		}
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}
