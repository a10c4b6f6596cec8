package rknnt

import (
	"io/fs"
	"net/http"
	"time"

	"repro/internal/graph"
	"repro/internal/gtfs"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/server"
)

// GTFSFeed is a GTFS feed reduced to the RkNNT data model: representative
// route geometries with dense stop IDs and planar (km) coordinates.
type GTFSFeed = gtfs.Feed

// LoadGTFS reads a GTFS feed (stops.txt, routes.txt, trips.txt,
// stop_times.txt) from the filesystem — the format the paper's NYC and LA
// bus networks were extracted from. Use os.DirFS(dir) for a directory on
// disk. The feed's Routes slot directly into a Dataset:
//
//	feed, err := rknnt.LoadGTFS(os.DirFS("gtfs/"))
//	db, err := rknnt.Open(&rknnt.Dataset{Routes: feed.Routes, Transitions: ts})
func LoadGTFS(fsys fs.FS) (*GTFSFeed, error) {
	return gtfs.Load(fsys)
}

// NetworkFromRoutes builds the bus-network graph of Definition 9 from a
// route collection: one vertex per distinct stop, Euclidean-weighted
// edges between consecutive stops. The returned map translates stop IDs
// to network vertices (for Planner queries).
func NetworkFromRoutes(routes []Route) (*Network, map[StopID]VertexID, error) {
	return graph.FromRoutes(routes)
}

// MonitorEvent describes one incremental change to a standing query's
// result set.
type MonitorEvent = monitor.Event

// StandingQueryID identifies a registered continuous query.
type StandingQueryID = monitor.QueryID

// Monitor maintains continuous RkNNT queries whose results update
// incrementally as transitions arrive and expire — the paper's dynamic
// scenario as an API. While a Monitor is attached, route all transition
// updates through it (not through the DB) so standing results stay
// consistent; route changes through the DB must be followed by
// RouteChanged.
type Monitor struct {
	m  *monitor.Monitor
	db *DB
}

// NewMonitor attaches a continuous-query monitor to the database.
func (db *DB) NewMonitor() *Monitor {
	return &Monitor{m: monitor.New(db.idx), db: db}
}

// Register adds a standing RkNNT query and returns its ID plus the
// initial result set.
func (mo *Monitor) Register(query []Point, k int, sem Semantics) (StandingQueryID, []TransitionID, error) {
	return mo.m.Register(query, k, sem)
}

// Unregister removes a standing query.
func (mo *Monitor) Unregister(id StandingQueryID) bool { return mo.m.Unregister(id) }

// Results returns the current result set of a standing query.
func (mo *Monitor) Results(id StandingQueryID) ([]TransitionID, error) {
	return mo.m.Results(id)
}

// Add indexes a new transition and returns the standing-query deltas.
// Each arriving transition costs two route-tree probes per distinct k
// among the standing queries and two distance compares per standing
// query, independent of the transition set size.
func (mo *Monitor) Add(t Transition) ([]MonitorEvent, error) { return mo.m.Add(t) }

// Remove drops a transition and returns the standing-query deltas.
func (mo *Monitor) Remove(id TransitionID) ([]MonitorEvent, bool) { return mo.m.Remove(id) }

// ExpireBefore drops every timed transition older than cutoff and returns
// all standing-query deltas.
func (mo *Monitor) ExpireBefore(cutoff int64) []MonitorEvent { return mo.m.ExpireBefore(cutoff) }

// RouteChanged recomputes every standing query after route additions or
// removals and returns the deltas.
func (mo *Monitor) RouteChanged() ([]MonitorEvent, error) { return mo.m.RouteChanged() }

// Engine is the concurrency-safe serving layer over a DB: an
// RWMutex-guarded single-writer/many-reader core with coalesced write
// batches, an epoch-invalidated LRU query cache, in-flight query
// deduplication and standing-query fan-out. See internal/serve.
type Engine = serve.Engine

// EngineOptions configures an Engine (cache size, batch limits, and the
// optional bus network that enables Plan).
type EngineOptions = serve.Options

// EngineStats is a snapshot of an Engine's serving counters.
type EngineStats = serve.Stats

// StandingQuery is a registered continuous RkNNT query with its
// incremental event stream.
type StandingQuery = serve.Standing

// NewEngine wraps the database in a serving engine. The engine assumes
// ownership of all mutations: once serving starts, route updates
// through it rather than the DB. Close the engine when done.
func (db *DB) NewEngine(opts EngineOptions) *Engine { return serve.New(db.idx, opts) }

// NewHandler exposes an engine as the HTTP/JSON serving API
// (see internal/server for the endpoint list).
func NewHandler(e *Engine) http.Handler { return server.New(e) }

// Serve is the one-call serving entry point: it wraps the database in
// an engine and serves the HTTP API on addr until the listener fails.
// For shutdown control, use NewEngine + NewHandler with your own
// http.Server. Header and idle timeouts guard against slow-client
// connection exhaustion; streaming (/v1/watch) is unaffected.
func Serve(addr string, db *DB, opts EngineOptions) error {
	e := db.NewEngine(opts)
	defer e.Close()
	srv := &http.Server{
		Addr:              addr,
		Handler:           NewHandler(e),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return srv.ListenAndServe()
}
