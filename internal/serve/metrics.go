package serve

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// engineMetrics bundles every serving-layer instrument over one shared
// obs.Registry. All hot-path handles (histograms, counters) are resolved
// once at engine construction so the record path never touches the
// registry's maps. Gauge families are scrape-time functions reading the
// engine directly; they take the engine's read lock and therefore
// observe committed state only.
type engineMetrics struct {
	reg *obs.Registry

	// Query path.
	queryLatency  *obs.Histogram // end-to-end RkNNT wall clock, hits included
	filterLatency *obs.Histogram // executed queries: core filtering stage
	verifyLatency *obs.Histogram // executed queries: core verification stage
	queriesRun    *obs.Counter

	// Which core path executed queries took, and the cost of each
	// background radius-plane build.
	pathPlane    *obs.Counter
	pathPipeline *obs.Counter
	planeBuild   *obs.Histogram

	// Result cache + in-flight dedup.
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheRepairs *obs.Counter
	cachePurges  *obs.Counter
	dedupHits    *obs.Counter

	// Lazy repair (repair.go): journal ops replayed per repaired hit, why
	// a stale hit was recomputed instead, and the RR-tree radius probes
	// the journal memos cost.
	repairReplayOps          *obs.Histogram
	repairFallbackStructural *obs.Counter
	repairFallbackJournal    *obs.Counter
	repairFallbackBudget     *obs.Counter
	radiusProbes             *obs.Counter

	// Batched query execution (batchexec.go).
	batchRequests *obs.Counter
	batchQueries  *obs.Counter
	batchExecuted *obs.Counter
	batchSize     *obs.Histogram // queries per batch request
	batchLatency  *obs.Histogram // end-to-end RkNNTBatch wall clock

	// Write pipelines.
	batches       *obs.Counter
	batchedOps    *obs.Counter
	queueWait     *obs.Histogram   // submit -> batch application start
	commit        *obs.Histogram   // commit critical section, all pipelines
	shardCommit   []*obs.Histogram // per shard pipeline commit critical section
	barrierCommit *obs.Histogram   // cross-shard barrier commits
	shardWrite    []*obs.Histogram

	// Expiry + snapshots.
	expirySweep  *obs.Histogram
	expirySwept  *obs.Counter
	snapshotSave *obs.Histogram
	snapshotLoad *obs.Histogram

	// Checkpoints (checkpoint.go): durations and totals split by kind
	// (full rewrite vs incremental delta), bytes and shard arenas
	// written, and skipped no-ops.
	ckptFull       *obs.Histogram
	ckptDelta      *obs.Histogram
	ckptTotalFull  *obs.Counter
	ckptTotalDelta *obs.Counter
	ckptBytes      *obs.Counter
	ckptShards     *obs.Counter
	ckptNoop       *obs.Counter

	// Standing queries.
	dropped *obs.Counter
	mon     monitor.Metrics

	// Cumulative core pruning totals over executed queries. These used
	// to live in a mutex-guarded core.Stats next to lock-free counters,
	// so a stats snapshot could tear across the two; as plain atomics
	// every read is a consistent point-in-time value.
	filterPoints *obs.Counter
	filterRoutes *obs.Counter
	refineNodes  *obs.Counter
	candidates   *obs.Counter
	results      *obs.Counter
}

const nanos = 1e-9 // histograms record nanoseconds; export seconds

// newEngineMetrics registers the serving-layer families and resolves the
// hot-path handles. shards is the TR-tree shard count, fixed for the
// engine's lifetime.
func newEngineMetrics(e *Engine, shards int) *engineMetrics {
	reg := obs.NewRegistry()
	m := &engineMetrics{
		reg: reg,

		queryLatency:  reg.Histogram("rknnt_query_seconds", "End-to-end RkNNT query latency through the engine, cache hits included.", nanos),
		filterLatency: reg.Histogram("rknnt_query_filter_seconds", "Core filtering stage latency of executed (uncached) RkNNT queries.", nanos),
		verifyLatency: reg.Histogram("rknnt_query_verify_seconds", "Core verification stage latency of executed (uncached) RkNNT queries.", nanos),
		queriesRun:    reg.Counter("rknnt_queries_executed_total", "RkNNT queries executed against the index (cache misses)."),

		cacheHits:    reg.Counter("rknnt_cache_hits_total", "Result-cache hits at the current epoch."),
		cacheMisses:  reg.Counter("rknnt_cache_misses_total", "Result-cache misses."),
		cacheRepairs: reg.Counter("rknnt_cache_repairs_total", "Stale cached results repaired forward at read time by replaying the shard journals."),
		cachePurges:  reg.Counter("rknnt_cache_purges_total", "Full result-cache purges (route changes)."),
		dedupHits:    reg.Counter("rknnt_inflight_dedup_total", "Queries served by sharing an identical in-flight execution."),

		repairReplayOps: reg.Histogram("rknnt_repair_replay_ops", "Journal ops (adds checked + removals spliced) replayed per repaired stale cache hit.", 1),
		radiusProbes:    reg.Counter("rknnt_rank_radius_probes_total", "RR-tree rank-radius probes for arriving transitions: two per transition per k. For a k with a radius plane the committing writer pays them (the radii are stored with the endpoints and handed to the journal batch); for any other k in use lazy cache repair pays them once per batch, memoised and shared by every cached entry that replays it."),
		planeBuild:      reg.Histogram("rknnt_radius_plane_build_seconds", "Duration of building a radius plane in the background (one rank-radius probe per indexed endpoint, off the request path and outside the shard locks) after a k earned it by traffic.", nanos),

		batchRequests: reg.Counter("rknnt_batch_requests_total", "RkNNTBatch calls (batch endpoint requests)."),
		batchQueries:  reg.Counter("rknnt_batch_queries_total", "Queries submitted through RkNNTBatch."),
		batchExecuted: reg.Counter("rknnt_batch_executed_total", "Cache-missing batch members executed, all members of one request over one snapshot."),
		batchSize:     reg.Histogram("rknnt_batch_size", "Queries per batch request.", 1),
		batchLatency:  reg.Histogram("rknnt_batch_seconds", "End-to-end batch request latency.", nanos),

		batches:    reg.Counter("rknnt_write_batches_total", "Committed coalesced write batches."),
		batchedOps: reg.Counter("rknnt_write_ops_total", "Write operations committed via batches."),
		queueWait:  reg.Histogram("rknnt_write_queue_wait_seconds", "Time write ops spend queued before their batch starts applying.", nanos),
		commit:     reg.Histogram("rknnt_write_commit_seconds", "Write-lock critical section duration per committed batch.", nanos),

		expirySweep:  reg.Histogram("rknnt_expiry_sweep_seconds", "Duration of sliding-window expiry sweeps over the time heap.", nanos),
		expirySwept:  reg.Counter("rknnt_expired_transitions_total", "Transitions drained by expiry sweeps."),
		snapshotSave: reg.Histogram("rknnt_snapshot_save_seconds", "Engine snapshot serialisation duration.", nanos),
		snapshotLoad: reg.Histogram("rknnt_snapshot_load_seconds", "Engine snapshot load duration at warm boot.", nanos),

		dropped: reg.Counter("rknnt_dropped_events_total", "Standing-query deltas dropped on full subscriber buffers."),
		mon: monitor.Metrics{
			StandingAdds:    reg.Counter("rknnt_standing_adds_total", "Standing queries registered."),
			StandingRemoves: reg.Counter("rknnt_standing_removes_total", "Standing queries unregistered."),
			RankChecks:      reg.Counter("rknnt_rank_checks_total", "RR-tree probes by the standing-query monitor for arriving transitions: two rank-radius probes per transition per distinct standing k, independent of the number of standing queries."),
			ResultAdds:      reg.Counter("rknnt_standing_result_adds_total", "Transitions entering standing result sets."),
			ResultRemoves:   reg.Counter("rknnt_standing_result_removes_total", "Transitions leaving standing result sets."),
			Recomputes:      reg.Counter("rknnt_standing_recomputes_total", "Full standing-query recomputations after route changes."),
		},

		filterPoints: reg.Counter("rknnt_filter_points_total", "Filtering points used across executed queries."),
		filterRoutes: reg.Counter("rknnt_filter_routes_total", "Distinct filtering routes across executed queries."),
		refineNodes:  reg.Counter("rknnt_refine_nodes_total", "RR-tree nodes pruned into refinement sets across executed queries."),
		candidates:   reg.Counter("rknnt_candidates_total", "Candidate endpoints surviving filtering across executed queries."),
		results:      reg.Counter("rknnt_results_total", "Transitions returned across executed queries."),
	}

	qp := reg.CounterVec("rknnt_query_path_total", "Executed (uncached) RkNNT queries by core path (\"plane\": one radius-plane descent, \"pipeline\": the paper's filter-refine-verify pipeline — no plane for that k, BruteForce, or an ablation flag).", "path")
	m.pathPlane = qp.With("plane")
	m.pathPipeline = qp.With("pipeline")

	rf := reg.CounterVec("rknnt_repair_fallback_total", "Stale cache hits recomputed instead of repaired, by reason (\"structural\": a route change moved the structural epoch, \"journal\": a shard journal no longer reaches back to the entry, \"budget\": more than "+strconv.Itoa(repairReplayOps)+" missed journal ops).", "reason")
	m.repairFallbackStructural = rf.With("structural")
	m.repairFallbackJournal = rf.With("journal")
	m.repairFallbackBudget = rf.With("budget")

	sw := reg.HistogramVec("rknnt_shard_write_seconds", "Per-shard portion of committed batched index writes.", nanos, "shard")
	m.shardWrite = make([]*obs.Histogram, shards)
	for s := range m.shardWrite {
		m.shardWrite[s] = sw.With(strconv.Itoa(s))
	}
	sc := reg.HistogramVec("rknnt_shard_commit_seconds", "Commit critical-section duration per shard write pipeline.", nanos, "shard")
	m.shardCommit = make([]*obs.Histogram, shards)
	for s := range m.shardCommit {
		m.shardCommit[s] = sc.With(strconv.Itoa(s))
	}
	m.barrierCommit = sc.With("barrier")

	ck := reg.HistogramVec("rknnt_checkpoint_seconds", "Checkpoint write duration by kind (\"full\": complete snapshot rewrite, \"delta\": incremental chain link).", nanos, "kind")
	m.ckptFull = ck.With("full")
	m.ckptDelta = ck.With("delta")
	ct := reg.CounterVec("rknnt_checkpoint_total", "Completed checkpoints by kind.", "kind")
	m.ckptTotalFull = ct.With("full")
	m.ckptTotalDelta = ct.With("delta")
	m.ckptBytes = reg.Counter("rknnt_checkpoint_bytes_total", "Bytes written by completed checkpoints (full and delta).")
	m.ckptShards = reg.Counter("rknnt_checkpoint_shards_written_total", "Shard arenas serialized by completed checkpoints; deltas write only shards whose epoch advanced.")
	m.ckptNoop = reg.Counter("rknnt_checkpoint_noop_total", "Incremental checkpoint requests skipped because the epoch vector had not moved.")
	reg.GaugeFunc("rknnt_checkpoint_seq", "Current incremental-checkpoint chain length (0: base snapshot only, or never checkpointed).", func() float64 {
		return float64(e.CheckpointSeq())
	})
	reg.GaugeFunc("rknnt_filebacked_arenas", "Index arenas (RR-tree + shards) still served zero-copy from the mmap'd snapshot; drops as writes migrate shards to the heap.", func() float64 {
		e.rlockAll()
		n := e.idx.FileBackedArenas()
		e.runlockAll()
		return float64(n)
	})
	reg.GaugeFunc("rknnt_filebacked_bytes", "Arena bytes still aliasing the mmap'd snapshot instead of the heap.", func() float64 {
		e.rlockAll()
		b := e.idx.FileBackedBytes()
		e.runlockAll()
		return float64(b)
	})

	reg.GaugeFunc("rknnt_epoch", "Current index version, the sum of the epoch vector; advances per committed batch and route change.", func() float64 {
		return float64(e.Epoch())
	})
	reg.GaugeFunc("rknnt_epoch_structural", "Structural component of the epoch vector; advances on route changes.", func() float64 {
		return float64(e.epochStruct.Load())
	})
	reg.GaugeVecFunc("rknnt_shard_epoch", "Per-shard components of the epoch vector; each advances when a write batch commits on that shard.", []string{"shard"}, func(emit func([]string, float64)) {
		for s := range e.epochShard {
			emit([]string{strconv.Itoa(s)}, float64(e.epochShard[s].Load()))
		}
	})
	reg.GaugeVecFunc("rknnt_write_queue_depth", "Ops waiting on each shard's write pipeline (label \"barrier\": the cross-shard pipeline).", []string{"shard"}, func(emit func([]string, float64)) {
		for s, p := range e.pipes {
			emit([]string{strconv.Itoa(s)}, float64(len(p.ch)))
		}
		emit([]string{"barrier"}, float64(len(e.barrier.ch)))
	})
	reg.GaugeFunc("rknnt_routes", "Indexed routes.", func() float64 {
		return float64(e.NumRoutes())
	})
	reg.GaugeFunc("rknnt_transitions", "Indexed transitions.", func() float64 {
		return float64(e.NumTransitions())
	})
	reg.GaugeFunc("rknnt_cache_entries", "Live result-cache entries.", func() float64 {
		return float64(e.cache.Len())
	})
	reg.GaugeVecFunc("rknnt_cache_shard_entries", "Live result-cache entries per cache shard.", []string{"shard"}, func(emit func([]string, float64)) {
		for s, n := range e.cache.ShardLens() {
			emit([]string{strconv.Itoa(s)}, float64(n))
		}
	})
	reg.GaugeFunc("rknnt_radius_planes", "Radius planes on the TR-tree: 1 while some k is answered by a plane descent (and every arriving transition pays two RR-tree probes at that k), else 0.", func() float64 {
		if e.idx.RadiusK() != 0 {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("rknnt_radius_plane_k", "The k that owns the radius plane (the k most executed requests used over the last admission window; a single miss, a batch that executed a miss, or a plan precompute counts one), 0 when there is none.", func() float64 {
		return float64(e.idx.RadiusK())
	})
	reg.GaugeFunc("rknnt_standing_queries", "Registered standing queries.", func() float64 {
		return float64(e.standing.Load())
	})
	reg.GaugeFunc("rknnt_slow_queries", "Queries recorded by the slow-query log since start.", func() float64 {
		return float64(e.slow.Total())
	})
	reg.GaugeVecFunc("rknnt_shard_points", "Indexed transition endpoints per TR-tree shard (occupancy).", []string{"shard"}, func(emit func([]string, float64)) {
		e.rlockAll()
		sizes := e.idx.TransitionShardSizes()
		e.runlockAll()
		for s, n := range sizes {
			emit([]string{strconv.Itoa(s)}, float64(n))
		}
	})
	return m
}

// observer builds the index-level telemetry sinks backed by this
// metrics set.
func (m *engineMetrics) observer() index.Observer {
	return index.Observer{
		ShardWrite:  m.shardWrite,
		ExpirySweep: m.expirySweep,
		ExpirySwept: m.expirySwept,
	}
}

// addQueryTotals folds one executed query's core stats into the
// cumulative counters and stage histograms.
func (m *engineMetrics) addQueryTotals(s *core.Stats) {
	m.filterLatency.RecordDuration(s.Filter)
	m.verifyLatency.RecordDuration(s.Verify)
	m.filterPoints.Add(uint64(s.FilterPoints))
	m.filterRoutes.Add(uint64(s.FilterRoutes))
	m.refineNodes.Add(uint64(s.RefineNodes))
	m.candidates.Add(uint64(s.Candidates))
	m.results.Add(uint64(s.Results))
	m.queriesRun.Inc()
	if s.Plane {
		m.pathPlane.Inc()
	} else {
		m.pathPipeline.Inc()
	}
}
