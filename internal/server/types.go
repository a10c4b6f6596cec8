package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/serve"
)

// PointDTO is a planar location on the wire.
type PointDTO struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// point converts a decoded point, rejecting coordinates whose squares are
// not finite (geo.MaxCoord): 1e200 is valid JSON but squares to +Inf, and
// every distance comparison downstream assumes finite numbers.
func (p PointDTO) point() (geo.Point, error) {
	pt := geo.Pt(p.X, p.Y)
	if !pt.Finite() {
		return pt, fmt.Errorf("coordinate out of range: (%g, %g), need |v| <= %g", p.X, p.Y, geo.MaxCoord)
	}
	return pt, nil
}

func toPoints(dto []PointDTO) ([]geo.Point, error) {
	pts := make([]geo.Point, len(dto))
	for i, p := range dto {
		var err error
		if pts[i], err = p.point(); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

func fromPoints(pts []geo.Point) []PointDTO {
	dto := make([]PointDTO, len(pts))
	for i, p := range pts {
		dto[i] = PointDTO{X: p.X, Y: p.Y}
	}
	return dto
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- /v1/rknnt ---

type rknntRequest struct {
	Query     []PointDTO `json:"query"`
	K         int        `json:"k"`
	Method    string     `json:"method,omitempty"`    // fr | vo | dc (default) | bf
	Semantics string     `json:"semantics,omitempty"` // exists (default) | forall
	TimeFrom  int64      `json:"time_from,omitempty"`
	TimeTo    int64      `json:"time_to,omitempty"`
}

type queryStatsDTO struct {
	FilterMicros int64 `json:"filter_micros"`
	VerifyMicros int64 `json:"verify_micros"`
	FilterPoints int   `json:"filter_points"`
	FilterRoutes int   `json:"filter_routes"`
	RefineNodes  int   `json:"refine_nodes"`
	Candidates   int   `json:"candidates"`
}

type rknntResponse struct {
	Transitions []model.TransitionID `json:"transitions"`
	Count       int                  `json:"count"`
	Cached      bool                 `json:"cached"`
	Repaired    bool                 `json:"repaired,omitempty"` // cache hit brought forward by journal replay
	Shared      bool                 `json:"shared,omitempty"`
	// Epoch is the scalar sum of the epoch vector (monotonic, wire-
	// compatible); EpochVector is the exact per-shard version the
	// result is valid at.
	Epoch       uint64         `json:"epoch"`
	EpochVector serve.EpochVec `json:"epoch_vector"`
	Stats       queryStatsDTO  `json:"stats"`
	Trace       *obs.TraceData `json:"trace,omitempty"` // present with ?trace=1
}

// --- /v1/rknnt/batch ---

// maxBatchQueries caps queries per batch request: combined with
// maxRequestBody it bounds the work one POST can demand.
const maxBatchQueries = 256

type rknntBatchRequest struct {
	Queries   [][]PointDTO `json:"queries"`
	K         int          `json:"k"`
	Method    string       `json:"method,omitempty"`    // fr | vo | dc (default) | bf
	Semantics string       `json:"semantics,omitempty"` // exists (default) | forall
	TimeFrom  int64        `json:"time_from,omitempty"`
	TimeTo    int64        `json:"time_to,omitempty"`
}

// rknntBatchItem is one query's answer within a batch response;
// results[i] answers queries[i].
type rknntBatchItem struct {
	Transitions []model.TransitionID `json:"transitions"`
	Count       int                  `json:"count"`
	Cached      bool                 `json:"cached"`
	Repaired    bool                 `json:"repaired,omitempty"`
	Shared      bool                 `json:"shared,omitempty"` // intra-batch duplicate of an earlier query
	Epoch       uint64               `json:"epoch"`
	Stats       queryStatsDTO        `json:"stats"`
}

type rknntBatchResponse struct {
	Results []rknntBatchItem `json:"results"`
	Count   int              `json:"count"` // queries answered
}

func parseMethod(s string) (core.Method, error) {
	switch s {
	case "", "dc", "divide-conquer":
		return core.DivideConquer, nil
	case "fr", "filter-refine":
		return core.FilterRefine, nil
	case "vo", "voronoi":
		return core.Voronoi, nil
	case "bf", "brute-force":
		return core.BruteForce, nil
	}
	return 0, fmt.Errorf("unknown method %q (want fr, vo, dc or bf)", s)
}

func parseSemantics(s string) (core.Semantics, error) {
	switch s {
	case "", "exists":
		return core.Exists, nil
	case "forall":
		return core.ForAll, nil
	}
	return 0, fmt.Errorf("unknown semantics %q (want exists or forall)", s)
}

// --- /v1/knn ---

type knnRequest struct {
	Point PointDTO `json:"point"`
	K     int      `json:"k"`
}

type knnResponse struct {
	Routes []model.RouteID `json:"routes"`
}

// --- /v1/plan ---

type planRequest struct {
	SourceStop    model.StopID `json:"source_stop"`
	TargetStop    model.StopID `json:"target_stop"`
	Tau           float64      `json:"tau"`
	K             int          `json:"k"`
	Method        string       `json:"method,omitempty"`
	Objective     string       `json:"objective,omitempty"` // max (default) | min
	MaxExpansions int          `json:"max_expansions,omitempty"`
}

type planResponse struct {
	Feasible    bool                 `json:"feasible"`
	PathStops   []model.StopID       `json:"path_stops,omitempty"`
	Dist        float64              `json:"dist,omitempty"`
	Transitions []model.TransitionID `json:"transitions,omitempty"`
	Count       int                  `json:"count"`
	Truncated   bool                 `json:"truncated,omitempty"`
}

func parseObjective(s string) (planner.Objective, error) {
	switch s {
	case "", "max", "maximize":
		return planner.Maximize, nil
	case "min", "minimize":
		return planner.Minimize, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want max or min)", s)
}

// --- /v1/transitions ---

type transitionDTO struct {
	ID   model.TransitionID `json:"id"`
	O    PointDTO           `json:"o"`
	D    PointDTO           `json:"d"`
	Time int64              `json:"time,omitempty"`
}

type addTransitionsRequest struct {
	Transitions []transitionDTO `json:"transitions"`
}

type opError struct {
	ID    int32  `json:"id"`
	Error string `json:"error"`
}

type addTransitionsResponse struct {
	Added  int       `json:"added"`
	Errors []opError `json:"errors,omitempty"`
}

type deleteByIDsRequest struct {
	IDs []int32 `json:"ids"`
}

type deleteResponse struct {
	Removed int     `json:"removed"`
	Missing []int32 `json:"missing,omitempty"`
}

type expireRequest struct {
	Cutoff int64 `json:"cutoff"`
}

type expireResponse struct {
	Removed int `json:"removed"`
}

// --- /v1/routes ---

type routeDTO struct {
	ID    model.RouteID  `json:"id"`
	Stops []model.StopID `json:"stops"`
	Pts   []PointDTO     `json:"pts"`
}

type addRoutesRequest struct {
	Routes []routeDTO `json:"routes"`
}

type addRoutesResponse struct {
	Added  int       `json:"added"`
	Errors []opError `json:"errors,omitempty"`
}

// --- /v1/watch (SSE payloads) ---

type watchSnapshot struct {
	Query       int32                `json:"query"`
	Transitions []model.TransitionID `json:"transitions"`
}

type watchDelta struct {
	Transition model.TransitionID `json:"transition"`
	Added      bool               `json:"added"`
}
