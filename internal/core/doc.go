// Package core implements the RkNNT query of the paper "Reverse k Nearest
// Neighbor Search over Trajectories": the filter-refinement framework
// (Section 4), the Voronoi-based filtering optimisation (Section 5.1) and
// the divide-and-conquer decomposition (Section 5.2), together with a
// brute-force baseline used for ground truth.
//
// # Semantics
//
// A transition endpoint t "takes the query route Q as a kNN" iff fewer
// than k routes are strictly closer to t than Q:
//
//	rank(t, Q) = |{R ∈ DR : dist(t, R) < dist(t, Q)}| < k
//
// where dist is the point-route distance of Definition 3. This is the
// tie-friendly reading of Definition 4 (the paper's inequality has a typo).
// ∃RkNNT keeps a transition if either endpoint qualifies, ∀RkNNT if both
// do (Definition 5). All methods, including the brute force, implement
// exactly this definition; the property tests in this package assert that
// every method returns identical results.
//
// # The rank radius
//
// Sort the routes by distance from t and let r²_k(t) be the squared
// distance to the k-th (index.RankRadius2; +Inf with fewer than k routes).
// Fewer than k routes are strictly closer than Q exactly when the k-th
// nearest is not:
//
//	rank(t, Q) < k  ⇔  dist²(t, Q) <= r²_k(t)
//
// The right-hand side depends on Q through one distance only, so one
// RR-tree probe per endpoint serves every query at that k — the basis of
// incremental maintenance in internal/serve and internal/monitor, and of
// the radius-plane query path below. The
// equivalence is exact in floating point, ties included: both sides are
// minima of Point.Dist2 values, the same numbers the brute force
// compares, and every bound the traversals prune or credit with
// (Rect.MinDist2, Rect.MaxDist2) is a sum of squares that no Dist2 to a
// point inside the rectangle can cross. A query stop shared with a data
// route, where dist(t, Q) = dist(t, R) bit for bit, therefore decides the
// same way in BruteForce, TakesQueryAsKNN, index.RankRadius2 and the batch
// verifier: the tied route is not strictly closer.
//
// # Two query paths
//
// The paper's pipeline — FilterRoute, PruneTransition, RefineCandidates,
// per method — runs whenever the index carries no radius plane for
// Options.K. That is every use of this package except the serving
// engine's: the public DB, internal/exp's tables and figures, the
// ablation benchmarks.
//
// When the index carries a radius plane for Options.K (only serve.Engine
// builds one — for the k its traffic uses, see serve/plane.go), every
// endpoint stores r²_k and every node the largest r² beneath it, and
// RkNNT, EndpointMasks and BatchRkNNT answer by one descent
// (descent.go): skip a node when MinDist2(Q, node) exceeds its largest
// radius, compare PointRouteDist2(t, Q) <= r²_k(t) at the leaves,
// radix-sort the (transition, role) hits on their offset from the
// smallest (sortHits) and merge each transition's endpoints in
// ascending ID order. By the identity above the
// result is the pipeline's, bit for bit; Stats.Plane reports which path
// ran. BruteForce and the NoCrossover/NoNList/NoKernel ablations always
// run the pipeline — they exist to measure it — as does any k other than
// the plane's. The index keeps stored radii equal to fresh probes under
// every write (internal/index/radii.go).
//
// Query coordinates must satisfy geo.Point.Finite (|v| <= 1e150): beyond
// that a squared distance is +Inf or NaN and the comparisons above stop
// meaning what the definition says. The index applies the same check to
// routes and transitions.
//
// # Determinism
//
// Results are returned as sorted transition IDs and depend only on the
// logical content of the index — not on how it came to hold that content.
// Two indexes with the same routes and transitions answer every query
// identically whether they were bulk-loaded, mutated into shape
// incrementally, or restored from an arena snapshot; with Options.
// Parallel the shard fan-out and worker-parallel verification change the
// schedule but never the result. The snapshot and parallel differential
// tests in this package pin both properties.
//
// # Reading the index
//
// The hot paths iterate crossover sets and NLists through the zero-copy
// accessors (CrossoverView, NListEach) and hold no locks; the serving
// layer guarantees the index is quiescent while queries run.
package core
