// Package rknnt is a Go implementation of "Reverse k Nearest Neighbor
// Search over Trajectories" (Wang, Bao, Culpepper, Sellis, Cong; ICDE
// 2018 / arXiv:1704.03978).
//
// Given a collection of travel routes DR (e.g. bus lines) and a collection
// of passenger transitions DT (origin/destination pairs), the RkNNT query
// takes a query route Q and returns every transition that would rank Q
// among its k nearest routes — the passengers the route would attract.
// On top of RkNNT, the package plans optimal routes through a bus network:
// MaxRkNNT (attract the most passengers within a travel distance budget)
// and MinRkNNT (the fewest, e.g. for emergency corridors).
//
// # Quick start
//
//	db, err := rknnt.Open(dataset)
//	res, err := db.RkNNT(queryPoints, rknnt.QueryOptions{K: 10})
//	// res.Transitions are the attracted passengers.
//
// Indexes are dynamic: AddTransition/RemoveTransition keep answers current
// as passenger requests arrive and expire, the paper's motivating
// scenario. See the examples directory for complete programs.
package rknnt

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/planner"
)

// Point is a planar location (kilometres in the synthetic workloads).
type Point = geo.Point

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// Route is a travel route: a sequence of at least two stops.
type Route = model.Route

// Transition is a passenger movement: an origin and a destination point,
// optionally time-stamped.
type Transition = model.Transition

// Dataset is a route collection plus a transition collection.
type Dataset = model.Dataset

// Identifier types for routes, transitions and network stops.
type (
	RouteID      = model.RouteID
	TransitionID = model.TransitionID
	StopID       = model.StopID
)

// Method selects the RkNNT processing strategy.
type Method = core.Method

// Available processing strategies, in the order the paper evaluates them.
const (
	// FilterRefine is the basic filter-refinement framework (Section 4).
	FilterRefine = core.FilterRefine
	// Voronoi adds whole-route Voronoi filtering (Section 5.1).
	Voronoi = core.Voronoi
	// DivideConquer decomposes the query into per-point queries
	// (Section 5.2); the paper's fastest method.
	DivideConquer = core.DivideConquer
	// BruteForce scans everything; exact but slow. Useful as ground
	// truth in tests.
	BruteForce = core.BruteForce
)

// Semantics selects between ∃RkNNT and ∀RkNNT (Definition 5).
type Semantics = core.Semantics

const (
	// Exists keeps transitions with at least one endpoint attracted.
	Exists = core.Exists
	// ForAll requires both endpoints to be attracted.
	ForAll = core.ForAll
)

// QueryOptions configures an RkNNT query.
type QueryOptions = core.Options

// QueryStats reports where an RkNNT query spent its time.
type QueryStats = core.Stats

// Result is an RkNNT answer.
type Result struct {
	// Transitions lists matching transition IDs in ascending order.
	Transitions []TransitionID
	// Stats carries timing and pruning counters.
	Stats QueryStats
}

// DB is an RkNNT database: the RR-tree, TR-tree, PList and NList indexes
// over one dataset, supporting dynamic updates. DB is not safe for
// concurrent mutation; wrap with a lock if updates and queries race.
type DB struct {
	idx *index.Index
}

// Open builds the indexes over the dataset (bulk loaded). The dataset is
// copied; later mutations of ds do not affect the DB.
func Open(ds *Dataset) (*DB, error) {
	idx, err := index.Build(ds)
	if err != nil {
		return nil, err
	}
	return &DB{idx: idx}, nil
}

// RkNNT answers the reverse k-nearest-neighbour query over trajectories
// for the query route.
func (db *DB) RkNNT(query []Point, opts QueryOptions) (*Result, error) {
	ids, stats, err := core.RkNNT(db.idx, query, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Transitions: ids, Stats: *stats}, nil
}

// KNNRoutes returns the k routes nearest to a point under the point-route
// distance of Definition 3, nearest first.
func (db *DB) KNNRoutes(p Point, k int) []RouteID {
	return core.KNNRoutes(db.idx, p, k)
}

// AddRoute indexes a new route.
func (db *DB) AddRoute(r Route) error { return db.idx.AddRoute(r) }

// RemoveRoute removes a route; it reports whether the route existed.
func (db *DB) RemoveRoute(id RouteID) bool { return db.idx.RemoveRoute(id) }

// AddTransition indexes a new transition.
func (db *DB) AddTransition(t Transition) error { return db.idx.AddTransition(t) }

// RemoveTransition removes a transition; it reports whether it existed.
func (db *DB) RemoveTransition(id TransitionID) bool { return db.idx.RemoveTransition(id) }

// ExpireTransitionsBefore drops every timed transition older than cutoff
// and returns how many were removed.
func (db *DB) ExpireTransitionsBefore(cutoff int64) int {
	return db.idx.ExpireTransitionsBefore(cutoff)
}

// NumRoutes returns the number of indexed routes.
func (db *DB) NumRoutes() int { return db.idx.NumRoutes() }

// NumTransitions returns the number of indexed transitions.
func (db *DB) NumTransitions() int { return db.idx.NumTransitions() }

// Route returns the indexed route with the given ID, or nil.
func (db *DB) Route(id RouteID) *Route { return db.idx.Route(id) }

// Transition returns the indexed transition with the given ID, or nil.
func (db *DB) Transition(id TransitionID) *Transition { return db.idx.Transition(id) }

// Network is a weighted bus-network graph (stops as vertices).
type Network = graph.Graph

// VertexID indexes a stop in a Network.
type VertexID = graph.VertexID

// NewNetwork returns an empty bus network.
func NewNetwork() *Network { return graph.New() }

// Objective selects route-planning maximisation or minimisation.
type Objective = planner.Objective

const (
	// Maximize plans the route attracting the most passengers.
	Maximize = planner.Maximize
	// Minimize plans the route attracting the fewest passengers.
	Minimize = planner.Minimize
)

// PlanOptions configures route planning.
type PlanOptions = planner.Options

// PlanResult is a planned route with its attracted passengers.
type PlanResult = planner.Result

// Planner answers MaxRkNNT/MinRkNNT queries using the per-vertex
// precomputation of Algorithm 5.
type Planner struct {
	pre *planner.Precomputed
}

// NewPlanner precomputes the per-vertex RkNNT sets (with the given k and
// method) and the all-pairs shortest-distance matrix for the network.
// This is the expensive offline step of Table 5; reuse the Planner across
// queries.
func (db *DB) NewPlanner(g *Network, k int, method Method) (*Planner, error) {
	pre, err := planner.Precompute(db.idx, g, k, method)
	if err != nil {
		return nil, err
	}
	return &Planner{pre: pre}, nil
}

// Plan finds the optimal route from s to e with travel distance at most
// tau (Algorithm 6 with reachability and dominance pruning). ok is false
// when no feasible route exists.
func (p *Planner) Plan(s, e VertexID, tau float64, opts PlanOptions) (*PlanResult, bool, error) {
	return p.pre.Plan(s, e, tau, opts)
}

// PlanEnumerated is the enumeration-based "Pre" method of Section 7.3:
// exhaustive candidate generation with precomputed RkNNT sets. Slower
// than Plan; exposed for completeness and benchmarks.
func (p *Planner) PlanEnumerated(s, e VertexID, tau float64, opts PlanOptions) (*PlanResult, bool) {
	return p.pre.PrePlan(s, e, tau, opts)
}

// PrecomputeTimes reports the durations of the two precomputation steps
// (per-vertex RkNNT queries, all-pairs shortest distances) as in Table 5.
// The per-vertex queries run on GOMAXPROCS workers; theirs is wall time.
func (p *Planner) PrecomputeTimes() (rknntTime, shortestTime int64) {
	return int64(p.pre.RkNNTTime), int64(p.pre.ShortestTime)
}

// PlanBruteForce is the paper's BruteForce planning baseline: enumerate
// all candidate routes within tau and run an on-the-fly RkNNT per
// candidate. Exposed for benchmarking against Plan.
func (db *DB) PlanBruteForce(g *Network, s, e VertexID, tau float64, k int, opts PlanOptions) (*PlanResult, bool, error) {
	return planner.BruteForcePlan(db.idx, g, s, e, tau, k, opts)
}

// CityConfig parameterises the synthetic workload generator.
type CityConfig = gen.Config

// City is a generated synthetic workload: stops, bus network and dataset.
type City = gen.City

// GenerateCity builds a deterministic synthetic city.
func GenerateCity(cfg CityConfig) (*City, error) { return gen.Generate(cfg) }

// LAConfig returns the Los-Angeles-like preset scaled down by the given
// factor (1 reproduces the paper's Table 2/3 cardinalities).
func LAConfig(scale int) CityConfig { return gen.LA(scale) }

// NYCConfig returns the New-York-like preset.
func NYCConfig(scale int) CityConfig { return gen.NYC(scale) }

// SyntheticConfig returns the NYC-Synthetic preset with n transitions.
func SyntheticConfig(scale, n int) CityConfig { return gen.Synthetic(scale, n) }

// GenerateQuery draws a synthetic query route from a city using the
// paper's query generator (random start on a route, ≤90° turns, fixed
// interval).
func GenerateQuery(c *City, rng *rand.Rand, numPoints int, intervalKM float64) []Point {
	return c.Query(rng, numPoints, intervalKM)
}
