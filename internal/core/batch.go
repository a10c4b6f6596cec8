package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// BatchRkNNT answers one RkNNT query per element of queries, all under
// the same options, over the one index snapshot the caller holds:
// results[i] and stats[i] are exactly what RkNNT(x, queries[i], opts)
// returns. Nothing in the filter–refinement framework shares work
// between two queries, so a batch is its members fanned across workers
// (batchMemberOpts). Every member is validated before any runs, and the
// first error fails the whole batch with no partial result.
func BatchRkNNT(x *index.Index, queries [][]geo.Point, opts Options) ([][]model.TransitionID, []*Stats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	for _, q := range queries {
		if err := opts.validate(q); err != nil {
			return nil, nil, err
		}
	}
	qopts, fan := batchMemberOpts(opts, len(queries))
	ids := make([][]model.TransitionID, len(queries))
	stats := make([]*Stats, len(queries))
	errs := make([]error, len(queries))
	RunBatch(len(queries), fan, func(i int) {
		ids[i], stats[i], errs[i] = RkNNT(x, queries[i], qopts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return ids, stats, nil
}

// batchMemberOpts derives the options each member of a batch runs under
// and whether the members fan out across workers. Members run untraced
// (their spans would interleave). When they fan out the workers already
// occupy the cores, so each member's own traversal runs sequentially; a
// batch of one is not fanned and keeps opts.Parallel as passed.
func batchMemberOpts(opts Options, members int) (qopts Options, fan bool) {
	fan = parallelEnabled(opts) && members > 1
	qopts = opts
	qopts.Trace = nil
	if fan {
		qopts.Parallel = false
	}
	return qopts, fan
}

// RunBatch invokes fn(i) for i in [0, n), across GOMAXPROCS-bounded
// workers when par is set, and returns once every call has. Work is
// handed out through an atomic cursor so uneven items load-balance. The
// planner's Precompute fans its per-vertex queries through it too.
func RunBatch(n int, par bool, fn func(int)) {
	if !par || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
