package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
)

// RkNNTBatch answers a batch of RkNNT queries sharing one option set
// against a single snapshot. Each query is served exactly as RkNNT
// would serve it — cache probe, journal repair of stale hits,
// intra-batch dedup of identical queries — and the cache misses execute
// through core.BatchRkNNT: concurrent single queries, each a plane
// descent or the pipeline as its k decides. A request that executed any
// miss counts once toward its k's plane admission (plane.go), as one
// single-query miss does. results[i] answers queries[i].
//
// The misses execute under one read-lock acquisition, so every one is
// answered at the same epoch vector. An execution error (invalid
// options, an empty query) fails the whole batch: the option set is
// shared, so option errors would fail every query anyway, and a
// malformed member is a caller bug the partial results would mask.
func (e *Engine) RkNNTBatch(queries [][]geo.Point, opts core.Options) ([]*QueryResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	opts.Parallel = true
	opts.Trace = nil // the batch path runs untraced
	t0 := time.Now()
	e.mx.batchRequests.Inc()
	e.mx.batchQueries.Add(uint64(len(queries)))
	e.mx.batchSize.Record(uint64(len(queries)))

	out := make([]*QueryResult, len(queries))
	keys := make([]string, len(queries))
	missOf := make(map[string]int, len(queries))
	var execIdx []int
	var execQs [][]geo.Point
	for i, q := range queries {
		key := queryKey(q, opts)
		keys[i] = key
		if _, dup := missOf[key]; dup {
			continue // intra-batch duplicate of a pending miss
		}
		if v, ok := e.cache.Get(key); ok {
			ent := v.(*cachedQuery)
			if e.vecIsCurrent(ent.res.Epochs) {
				res := ent.res
				out[i] = &QueryResult{Transitions: res.Transitions, Stats: res.Stats, Cached: true, Epoch: res.Epoch, Epochs: res.Epochs}
				continue
			}
			if res := e.tryRepair(key, ent); res != nil {
				out[i] = res
				continue
			}
		}
		missOf[key] = i
		execIdx = append(execIdx, i)
		execQs = append(execQs, q)
	}
	if len(execIdx) > 0 {
		idsAll, statsAll, vec, err := func() ([][]model.TransitionID, []*core.Stats, EpochVec, error) {
			e.rlockAll()
			defer e.runlockAll()
			ids, stats, err := core.BatchRkNNT(e.idx, execQs, opts)
			// Exact under the read locks: no commit is in flight.
			return ids, stats, e.epochVecQuiescent(), err
		}()
		if err != nil {
			return nil, err
		}
		e.notePlaneDemand(opts) // once per request, however many members ran
		for i, qi := range execIdx {
			stats := statsAll[i]
			e.mx.addQueryTotals(stats)
			// The batch's results share one (immutable) epoch vector.
			res := &QueryResult{Transitions: idsAll[i], Stats: *stats, Epoch: vec.Sum(), Epochs: vec}
			e.cache.Put(keys[qi], &cachedQuery{
				res:     res,
				query:   append([]geo.Point(nil), queries[qi]...),
				opts:    opts,
				touched: stats.ShardsTouched,
			})
			out[qi] = res
		}
		e.mx.batchExecuted.Add(uint64(len(execIdx)))
	}
	// Intra-batch duplicates adopt the first occurrence's freshly
	// executed result, the same sharing the flight group gives identical
	// concurrent singletons.
	for i := range queries {
		if out[i] != nil {
			continue
		}
		res := out[missOf[keys[i]]]
		out[i] = &QueryResult{Transitions: res.Transitions, Stats: res.Stats, Shared: true, Epoch: res.Epoch, Epochs: res.Epochs}
		e.mx.dedupHits.Inc()
	}
	e.mx.batchLatency.RecordDuration(time.Since(t0))
	return out, nil
}
