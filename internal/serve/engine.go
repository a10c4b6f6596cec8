package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// CacheSize is the query-result LRU capacity (entries). Default 1024
	// for engines built directly; rknnt-serve's -cache flag defaults to
	// 4096. Whatever the entry cap, the cache also holds at most
	// cacheByteBudget bytes of answers (cache.go), split evenly across
	// defaultCacheShards ways (shardcache.go).
	CacheSize int
	// MaxBatch caps how many queued writes one batch may coalesce.
	// Default 256.
	MaxBatch int
	// QueueDepth is each write pipeline's queue buffer. Writers block
	// (backpressure) once this many ops are queued on one shard's
	// pipeline. Default 1024.
	QueueDepth int
	// EventBuffer is the per-subscriber standing-query event buffer;
	// events beyond it are dropped (and counted). Default 256.
	EventBuffer int

	// Network optionally attaches the bus-network graph, enabling Plan.
	// VertexOf translates stop IDs to network vertices.
	Network  *graph.Graph
	VertexOf map[model.StopID]graph.VertexID

	// InitialEpochs seeds the engine's vector epoch. Warm starts pass
	// the vector stored in the snapshot (see ReadSnapshot) so the
	// version sequence stays monotonic across restarts; cold starts
	// leave it zero. A vector from a different shard layout folds its
	// leftover counts into the structural counter (Sum is preserved).
	InitialEpochs EpochVec

	// SlowLog, when non-nil, samples executed queries whose end-to-end
	// latency meets its threshold: each gets a per-stage trace recorded
	// from request arrival and kept in the log's ring. Nil disables
	// sampling at zero cost.
	SlowLog *obs.SlowLog
}

func (o *Options) fill() {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 256
	}
}

// Engine is a concurrency-safe RkNNT serving engine over one index.
// All methods are safe for concurrent use.
//
// Locking. Two lock families version the index:
//
//   - structMu guards structural state: routes, the RR-tree, the
//     PList. Route changes take it exclusively; everything else —
//     queries AND shard commits — holds it shared.
//   - shardMu[s] guards TR-tree shard s. A shard pipeline's commit
//     takes only its own shard lock (plus structMu shared), so two
//     shards commit under disjoint locks; queries take every shard
//     lock shared (rlockAll); barrier commits (expiry) take every shard
//     lock exclusive.
//
// All acquisition is ordered structMu then shardMu[0..n-1] ascending,
// so the lock graph is acyclic.
type Engine struct {
	opts Options

	structMu sync.RWMutex
	shardMu  []sync.RWMutex
	idx      *index.Index
	mon      *monitor.Monitor

	// Vector epoch: see epoch.go.
	epochStruct atomic.Uint64
	epochShard  []atomic.Uint64

	cache    *shardedCache
	journals []shardJournal
	flight   flightGroup

	// planeAdm decides which k owns the index's radius plane; see plane.go.
	planeAdm planeAdmission

	// Write pipelines: one per shard plus the barrier (see batch.go).
	pipes   []*shardPipeline
	barrier *shardPipeline
	quit    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	// mx holds every serving counter and latency histogram; see
	// metrics.go. slow is the optional slow-query log (nil = off).
	mx   *engineMetrics
	slow *obs.SlowLog

	// Incremental checkpoint chain state; see checkpoint.go.
	ckpt ckptState

	subMu   sync.Mutex
	subs    map[int]*subscriber
	nextSub int

	standing atomic.Int64

	planMu sync.Mutex
	plans  map[plannerKey]*plannerEntry
}

// New wraps an index in a serving engine. The engine assumes ownership
// of all mutations: once serving starts, do not mutate idx directly.
func New(idx *index.Index, opts Options) *Engine {
	opts.fill()
	shards := idx.NumTransitionShards()
	e := &Engine{
		opts:       opts,
		idx:        idx,
		mon:        monitor.New(idx),
		slow:       opts.SlowLog,
		shardMu:    make([]sync.RWMutex, shards),
		epochShard: make([]atomic.Uint64, shards),
		journals:   make([]shardJournal, shards),
		quit:       make(chan struct{}),
		subs:       make(map[int]*subscriber),
		plans:      make(map[plannerKey]*plannerEntry),
	}
	e.seedEpochs(opts.InitialEpochs)
	e.pipes = make([]*shardPipeline, shards)
	for s := range e.pipes {
		e.pipes[s] = &shardPipeline{e: e, shard: s, ch: make(chan writeOp, opts.QueueDepth)}
	}
	e.barrier = &shardPipeline{e: e, shard: -1, ch: make(chan writeOp, opts.QueueDepth)}
	e.mx = newEngineMetrics(e, shards)
	e.cache = newShardedCache(opts.CacheSize, defaultCacheShards, e.mx.cacheHits, e.mx.cacheMisses)
	idx.SetObserver(e.mx.observer())
	e.mon.SetMetrics(e.mx.mon)
	for s := range e.pipes {
		e.pipes[s].commitHist = e.mx.shardCommit[s]
		e.wg.Add(1)
		go e.pipes[s].run()
	}
	e.barrier.commitHist = e.mx.barrierCommit
	e.wg.Add(1)
	go e.barrier.run()
	return e
}

// Metrics returns the engine's metric registry. The serving layer adds
// its own HTTP families to the same registry, so one scrape covers the
// whole process.
func (e *Engine) Metrics() *obs.Registry { return e.mx.reg }

// SlowLog returns the slow-query log, or nil when sampling is off.
func (e *Engine) SlowLog() *obs.SlowLog { return e.slow }

// ObserveSnapshotLoad records how long loading the boot snapshot took.
// The load happens before the engine exists, so the loader reports it
// after construction.
func (e *Engine) ObserveSnapshotLoad(d time.Duration) {
	e.mx.snapshotLoad.RecordDuration(d)
}

// Close quiesces every write pipeline. Ops still queued (or mid-submit)
// on any shard fail with ErrClosed; once Close returns, every submitted
// op has been answered and no writer goroutine remains. Queries keep
// working — the index stays readable.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	e.closeMu.Unlock()
	// closed is now visible to every submitter before quit fires: any
	// send that won the race is already buffered and will be drained by
	// its pipeline; any send that lost observes closed and fails fast.
	close(e.quit)
	e.wg.Wait()
}

// Network returns the attached bus-network graph, or nil.
func (e *Engine) Network() *graph.Graph { return e.opts.Network }

// VertexOf returns the stop-to-vertex translation table, or nil.
func (e *Engine) VertexOf() map[model.StopID]graph.VertexID { return e.opts.VertexOf }

// QueryResult is a cached-or-computed RkNNT answer. Transitions is
// shared across callers and must not be modified.
type QueryResult struct {
	Transitions []model.TransitionID
	Stats       core.Stats
	Cached      bool // served from the result cache
	Repaired    bool // cache hit brought forward by journal replay
	Shared      bool // deduplicated against an identical in-flight query
	Epoch       uint64
	Epochs      EpochVec // exact vector the result is valid at
}

// cachedQuery is a cache entry: the result plus the query it answers
// and the sub-vector of shards the result depends on, so stale hits
// can be repaired forward by replaying the shard journals (repair.go)
// instead of recomputing.
type cachedQuery struct {
	res     *QueryResult
	query   []geo.Point // private copy
	opts    core.Options
	touched uint64 // shard bitmask: shards that contributed candidates
}

// RkNNT answers an RkNNT query against the current snapshot, consulting
// the result cache and deduplicating against identical in-flight
// queries. Queries run with shard- and candidate-parallelism enabled
// (a no-op on single-processor hosts); the flag does not enter the cache
// key because it cannot change the result.
func (e *Engine) RkNNT(query []geo.Point, opts core.Options) (*QueryResult, error) {
	opts.Parallel = true
	t0 := time.Now()
	csp := opts.Trace.StartSpan("cache")
	key := queryKey(query, opts)
	v, ok := e.cache.Get(key)
	csp.End()
	if ok {
		ent := v.(*cachedQuery)
		if e.vecIsCurrent(ent.res.Epochs) {
			opts.Trace.Event("cache_hit", int64(ent.res.Epoch))
			e.mx.queryLatency.RecordDuration(time.Since(t0))
			res := ent.res
			return &QueryResult{Transitions: res.Transitions, Stats: res.Stats, Cached: true, Epoch: res.Epoch, Epochs: res.Epochs}, nil
		}
		// Stale on some sub-vector: replay the missed shard journals
		// instead of recomputing, when they reach back far enough.
		if res := e.tryRepair(key, ent); res != nil {
			opts.Trace.Event("cache_repaired", int64(res.Epoch))
			e.mx.queryLatency.RecordDuration(time.Since(t0))
			return res, nil
		}
		opts.Trace.Event("cache_stale", int64(ent.res.Epoch))
	}
	// Slow-query sampling: when no caller trace is attached, record one
	// speculatively from request arrival; it is kept only if the query
	// turns out slow.
	exOpts := opts
	if exOpts.Trace == nil && e.slow != nil {
		exOpts.Trace = obs.NewTraceAt(t0)
	}
	// The flight key carries the (fuzzy) epoch vector so a query never
	// adopts a result computed over an older snapshot than it observed.
	v, err, shared := e.flight.Do(e.flightKey(key), func() (any, error) {
		ids, stats, vec, err := func() ([]model.TransitionID, *core.Stats, EpochVec, error) {
			// deferred so a panicking query cannot leave the engine
			// read-locked (which would wedge the write path for good).
			e.rlockAll()
			defer e.runlockAll()
			ids, stats, err := core.RkNNT(e.idx, query, exOpts)
			// Exact under the read locks: no commit is in flight.
			return ids, stats, e.epochVecQuiescent(), err
		}()
		if err != nil {
			return nil, err
		}
		e.mx.addQueryTotals(stats)
		e.notePlaneDemand(exOpts)
		res := &QueryResult{Transitions: ids, Stats: *stats, Epoch: vec.Sum(), Epochs: vec}
		// Cached entries must not retain the finished trace: repairs
		// reuse the stored options for rank checks only.
		copts := exOpts
		copts.Trace = nil
		e.cache.Put(key, &cachedQuery{
			res:     res,
			query:   append([]geo.Point(nil), query...),
			opts:    copts,
			touched: stats.ShardsTouched,
		})
		if e.slow != nil {
			if d := time.Since(t0); d >= e.slow.Threshold() {
				e.slow.Add(obs.SlowEntry{
					UnixMicros: time.Now().UnixMicro(),
					DurMicros:  d.Microseconds(),
					Detail:     slowDetail(query, exOpts),
					Trace:      exOpts.Trace.Data(),
				})
			}
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	e.mx.queryLatency.RecordDuration(time.Since(t0))
	if shared {
		e.mx.dedupHits.Inc()
		// The sharer's own trace (if any) saw no execution; mark why.
		opts.Trace.Event("inflight_shared", 0)
		res := v.(*QueryResult)
		return &QueryResult{Transitions: res.Transitions, Stats: res.Stats, Shared: true, Epoch: res.Epoch, Epochs: res.Epochs}, nil
	}
	return v.(*QueryResult), nil
}

// slowDetail renders the one-line description stored with slow-log
// entries.
func slowDetail(query []geo.Point, opts core.Options) string {
	return fmt.Sprintf("rknnt method=%s sem=%s k=%d pts=%d", opts.Method, opts.Semantics, opts.K, len(query))
}

// KNNRoutes returns the k routes nearest to p, nearest first.
func (e *Engine) KNNRoutes(p geo.Point, k int) ([]model.RouteID, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: k must be >= 1, got %d", k)
	}
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	return core.KNNRoutes(e.idx, p, k), nil
}

// AddTransition queues one transition for its home shard's next write
// batch and waits for it to commit.
func (e *Engine) AddTransition(t model.Transition) error {
	return e.submit(writeOp{kind: opAddTransition, t: t}).err
}

// AddTransitions queues a whole slice before waiting, so the ops
// coalesce into as few write batches (lock acquisitions, epoch bumps)
// as possible per shard pipeline. errs[i] is the outcome of ts[i].
func (e *Engine) AddTransitions(ts []model.Transition) []error {
	results := e.submitMany(len(ts), func(i int) writeOp {
		return writeOp{kind: opAddTransition, t: ts[i]}
	})
	errs := make([]error, len(ts))
	for i, r := range results {
		errs[i] = r.err
	}
	return errs
}

// RemoveTransition queues a removal; it reports whether the transition
// existed at commit time.
func (e *Engine) RemoveTransition(id model.TransitionID) (bool, error) {
	r := e.submit(writeOp{kind: opRemoveTransition, id: id})
	return r.existed, r.err
}

// RemoveTransitions queues a whole slice of removals before waiting
// (see AddTransitions). existed[i] reports whether ids[i] was present;
// err is the first submission failure (ErrClosed), if any.
func (e *Engine) RemoveTransitions(ids []model.TransitionID) (existed []bool, err error) {
	results := e.submitMany(len(ids), func(i int) writeOp {
		return writeOp{kind: opRemoveTransition, id: ids[i]}
	})
	existed = make([]bool, len(ids))
	for i, r := range results {
		existed[i] = r.existed
		if err == nil {
			err = r.err
		}
	}
	return existed, err
}

// ExpireTransitionsBefore queues a sliding-window expiry — a barrier
// commit spanning every shard — and returns how many transitions it
// removed.
func (e *Engine) ExpireTransitionsBefore(cutoff int64) (int, error) {
	r := e.submit(writeOp{kind: opExpire, cutoff: cutoff})
	return r.n, r.err
}

// AddRoute indexes a new route. The returned error covers both the
// insert itself and the standing-query recomputation.
func (e *Engine) AddRoute(r model.Route) error {
	errs, recompute := e.AddRoutes([]model.Route{r})
	if errs[0] != nil {
		return errs[0]
	}
	return recompute
}

// AddRoutes indexes a batch of routes in one commit. Route changes are
// rare and structural, so they bypass the shard pipelines and take the
// structural write lock directly (excluding queries and every shard
// commit at once); every standing query is recomputed — once per
// batch, not once per route. errs[i] is the outcome of rs[i];
// recompute is the standing-query recomputation error, if any (the
// routes themselves are still indexed, and the cache purged).
func (e *Engine) AddRoutes(rs []model.Route) (errs []error, recompute error) {
	errs = make([]error, len(rs))
	changed := 0
	e.structMu.Lock()
	for i := range rs {
		if err := e.idx.AddRoute(rs[i]); err != nil {
			errs[i] = err
			continue
		}
		changed++
	}
	recompute = e.routesChangedLocked(changed)
	e.structMu.Unlock()
	return errs, recompute
}

// RemoveRoute removes a route; it reports whether the route existed.
func (e *Engine) RemoveRoute(id model.RouteID) (bool, error) {
	existed, recompute := e.RemoveRoutes([]model.RouteID{id})
	return existed[0], recompute
}

// RemoveRoutes removes a batch of routes in one commit (see
// AddRoutes). existed[i] reports whether ids[i] was present.
func (e *Engine) RemoveRoutes(ids []model.RouteID) (existed []bool, recompute error) {
	existed = make([]bool, len(ids))
	changed := 0
	e.structMu.Lock()
	for i, id := range ids {
		existed[i] = e.idx.RemoveRoute(id)
		if existed[i] {
			changed++
		}
	}
	recompute = e.routesChangedLocked(changed)
	e.structMu.Unlock()
	return existed, recompute
}

// routesChangedLocked recomputes standing queries, bumps the
// structural epoch, purges the cache (and the now-unreplayable shard
// journals) and broadcasts the deltas after route mutations. Called
// with structMu held exclusively — queries and shard commits are all
// excluded — so deltas reach subscribers in commit order relative to
// transition batches, and the epoch advances even when recomputation
// fails so readers never see a mutated index under an old version.
func (e *Engine) routesChangedLocked(changed int) error {
	if changed == 0 {
		return nil
	}
	events, err := e.mon.RouteChanged()
	e.epochStruct.Add(1)
	e.cache.Purge()
	for s := range e.journals {
		e.journals[s].reset()
	}
	e.mx.cachePurges.Inc()
	e.broadcast(events)
	return err
}

// Route returns a copy-safe pointer to the indexed route, or nil.
func (e *Engine) Route(id model.RouteID) *model.Route {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	return e.idx.Route(id)
}

// Transition returns a copy of the indexed transition, or nil. The
// lookup is safe against concurrent shard commits.
func (e *Engine) Transition(id model.TransitionID) *model.Transition {
	if t, ok := e.idx.TransitionValue(id); ok {
		return &t
	}
	return nil
}

// NumRoutes returns the number of indexed routes.
func (e *Engine) NumRoutes() int {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	return e.idx.NumRoutes()
}

// NumTransitions returns the number of indexed transitions.
func (e *Engine) NumTransitions() int {
	e.rlockAll()
	defer e.runlockAll()
	return e.idx.NumTransitions()
}

// Stats is a point-in-time snapshot of the engine's serving counters.
// Every counter is an atomic read — no mutex pairs a snapshot together,
// so no field can tear against another (they may be skewed by writes
// racing the snapshot, which is inherent to lock-free counters).
type Stats struct {
	// Epoch is the scalar sum of the vector epoch (wire-compatible);
	// EpochVector is the full per-shard breakdown.
	Epoch       uint64   `json:"epoch"`
	EpochVector EpochVec `json:"epoch_vector"`
	Routes      int      `json:"routes"`
	Transitions int      `json:"transitions"`

	// RadiusPlaneK is the k whose queries are answered by a radius-plane
	// descent, 0 when no plane exists (plane.go).
	RadiusPlaneK int `json:"radius_plane_k"`

	// Shards is the TR-tree shard count; ShardSizes the number of
	// indexed transition endpoints per shard (occupancy).
	Shards     int   `json:"shards"`
	ShardSizes []int `json:"shard_sizes"`

	// WriteQueueDepths[s] is the number of ops waiting on shard s's
	// pipeline; BarrierQueueDepth counts ops waiting on the cross-shard
	// barrier pipeline (expiry).
	WriteQueueDepths  []int `json:"write_queue_depths"`
	BarrierQueueDepth int   `json:"barrier_queue_depth"`

	CacheEntries int `json:"cache_entries"`
	// CacheShardEntries[s] is cache way s's live entry count (always
	// defaultCacheShards elements).
	CacheShardEntries []int  `json:"cache_shard_entries"`
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	CacheRepairs      uint64 `json:"cache_repairs"` // stale hits repaired forward by journal replay
	CachePurges       uint64 `json:"cache_purges"`
	InflightDups      uint64 `json:"inflight_dups"`

	// Batched query execution: request/query/executed counts and the
	// per-request latency summary.
	BatchRequests uint64          `json:"batch_requests"`
	BatchQueries  uint64          `json:"batch_queries"`
	BatchExecuted uint64          `json:"batch_executed"`
	BatchLatency  obs.SummaryData `json:"batch_latency_micros"`

	Batches       uint64 `json:"batches"`
	BatchedOps    uint64 `json:"batched_ops"`
	QueriesRun    uint64 `json:"queries_run"`
	Standing      int64  `json:"standing_queries"`
	DroppedEvents uint64 `json:"dropped_events"`
	SlowQueries   uint64 `json:"slow_queries"`

	// Cumulative core pruning counters over executed (uncached) queries.
	FilterMicros int64 `json:"filter_micros"`
	VerifyMicros int64 `json:"verify_micros"`
	FilterPoints int   `json:"filter_points"`
	FilterRoutes int   `json:"filter_routes"`
	RefineNodes  int   `json:"refine_nodes"`
	Candidates   int   `json:"candidates"`
	Results      int   `json:"results"`

	// Latency summaries, microseconds. Query covers every engine RkNNT
	// call (cache hits included); Filter/Verify cover executed queries'
	// core stages; QueueWait and Commit cover the write pipelines.
	QueryLatency  obs.SummaryData `json:"query_latency_micros"`
	FilterLatency obs.SummaryData `json:"filter_latency_micros"`
	VerifyLatency obs.SummaryData `json:"verify_latency_micros"`
	QueueWait     obs.SummaryData `json:"write_queue_wait_micros"`
	Commit        obs.SummaryData `json:"write_commit_micros"`

	// ShardCommits[s] summarises shard s's pipeline commit critical
	// sections; BarrierCommit the cross-shard barrier commits.
	ShardCommits  []obs.SummaryData `json:"shard_commit_micros"`
	BarrierCommit obs.SummaryData   `json:"barrier_commit_micros"`

	// ShardWrites[s] summarises shard s's R-tree surgery within commits.
	ShardWrites []obs.SummaryData `json:"shard_write_micros"`

	ExpirySweep  obs.SummaryData `json:"expiry_sweep_micros"`
	Expired      uint64          `json:"expired_transitions"`
	SnapshotSave obs.SummaryData `json:"snapshot_save_micros"`
	SnapshotLoad obs.SummaryData `json:"snapshot_load_micros"`

	Monitor MonitorStats `json:"monitor"`
}

// MonitorStats surfaces the standing-query maintenance counters.
type MonitorStats struct {
	Adds          uint64 `json:"adds"`
	Removes       uint64 `json:"removes"`
	RankChecks    uint64 `json:"rank_checks"`
	ResultAdds    uint64 `json:"result_adds"`
	ResultRemoves uint64 `json:"result_removes"`
	Recomputes    uint64 `json:"recomputes"`
}

// micros is the Summarize scale turning recorded nanoseconds into
// microsecond summaries for /v1/stats.
const micros = 1e-3

// EngineStats returns the current serving counters.
func (e *Engine) EngineStats() Stats {
	m := e.mx
	e.rlockAll()
	shards := e.idx.NumTransitionShards()
	shardSizes := e.idx.TransitionShardSizes()
	routes := e.idx.NumRoutes()
	transitions := e.idx.NumTransitions()
	vec := e.epochVecQuiescent()
	e.runlockAll()
	shardWrites := make([]obs.SummaryData, len(m.shardWrite))
	for s, h := range m.shardWrite {
		shardWrites[s] = obs.Summarize(h, micros)
	}
	shardCommits := make([]obs.SummaryData, len(m.shardCommit))
	for s, h := range m.shardCommit {
		shardCommits[s] = obs.Summarize(h, micros)
	}
	queueDepths := make([]int, len(e.pipes))
	for s, p := range e.pipes {
		queueDepths[s] = len(p.ch)
	}
	filterSum := m.filterLatency.Snapshot()
	verifySum := m.verifyLatency.Snapshot()
	return Stats{
		Epoch:             vec.Sum(),
		EpochVector:       vec,
		Routes:            routes,
		Transitions:       transitions,
		RadiusPlaneK:      e.idx.RadiusK(),
		Shards:            shards,
		ShardSizes:        shardSizes,
		WriteQueueDepths:  queueDepths,
		BarrierQueueDepth: len(e.barrier.ch),
		CacheEntries:      e.cache.Len(),
		CacheShardEntries: e.cache.ShardLens(),
		CacheHits:         m.cacheHits.Load(),
		CacheMisses:       m.cacheMisses.Load(),
		CacheRepairs:      m.cacheRepairs.Load(),
		CachePurges:       m.cachePurges.Load(),
		InflightDups:      m.dedupHits.Load(),
		BatchRequests:     m.batchRequests.Load(),
		BatchQueries:      m.batchQueries.Load(),
		BatchExecuted:     m.batchExecuted.Load(),
		BatchLatency:      obs.Summarize(m.batchLatency, micros),
		Batches:           m.batches.Load(),
		BatchedOps:        m.batchedOps.Load(),
		QueriesRun:        m.queriesRun.Load(),
		Standing:          e.standing.Load(),
		DroppedEvents:     m.dropped.Load(),
		SlowQueries:       e.slow.Total(),
		FilterMicros:      int64(filterSum.Sum / 1000),
		VerifyMicros:      int64(verifySum.Sum / 1000),
		FilterPoints:      int(m.filterPoints.Load()),
		FilterRoutes:      int(m.filterRoutes.Load()),
		RefineNodes:       int(m.refineNodes.Load()),
		Candidates:        int(m.candidates.Load()),
		Results:           int(m.results.Load()),
		QueryLatency:      obs.Summarize(m.queryLatency, micros),
		FilterLatency:     obs.Summarize(m.filterLatency, micros),
		VerifyLatency:     obs.Summarize(m.verifyLatency, micros),
		QueueWait:         obs.Summarize(m.queueWait, micros),
		Commit:            obs.Summarize(m.commit, micros),
		ShardCommits:      shardCommits,
		BarrierCommit:     obs.Summarize(m.barrierCommit, micros),
		ShardWrites:       shardWrites,
		ExpirySweep:       obs.Summarize(m.expirySweep, micros),
		Expired:           m.expirySwept.Load(),
		SnapshotSave:      obs.Summarize(m.snapshotSave, micros),
		SnapshotLoad:      obs.Summarize(m.snapshotLoad, micros),
		Monitor: MonitorStats{
			Adds:          m.mon.StandingAdds.Load(),
			Removes:       m.mon.StandingRemoves.Load(),
			RankChecks:    m.mon.RankChecks.Load(),
			ResultAdds:    m.mon.ResultAdds.Load(),
			ResultRemoves: m.mon.ResultRemoves.Load(),
			Recomputes:    m.mon.Recomputes.Load(),
		},
	}
}
