// Package server exposes the serving engine (internal/serve) as an
// HTTP/JSON API: RkNNT and kNN queries, MaxRkNNT/MinRkNNT planning,
// batched transition and route updates, standing continuous queries
// over server-sent events, and serving statistics.
//
// Endpoints:
//
//	POST   /v1/rknnt              reverse k-nearest-neighbour query
//	POST   /v1/rknnt/batch        many RkNNT queries, one snapshot
//	POST   /v1/knn                k nearest routes to a point
//	POST   /v1/plan               MaxRkNNT/MinRkNNT route planning
//	POST   /v1/transitions        batch-add transitions
//	DELETE /v1/transitions        batch-remove transitions by ID
//	POST   /v1/transitions/expire sliding-window expiry
//	POST   /v1/routes             batch-add routes
//	DELETE /v1/routes             batch-remove routes by ID
//	GET    /v1/routes/{id}        fetch one route
//	POST   /v1/snapshot           save an arena snapshot for warm restarts
//	GET    /v1/watch              standing continuous query (SSE)
//	GET    /v1/stats              engine + per-endpoint counters
//	GET    /v1/slowlog            recent slow-query traces
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
//
// With WithPprof, the net/http/pprof profile handlers are additionally
// mounted under /debug/pprof/.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/serve"
)

// Server is the HTTP face of one serving engine. Create with New; it
// implements http.Handler.
type Server struct {
	engine  *serve.Engine
	stopOf  map[graph.VertexID]model.StopID // inverse of the engine's VertexOf
	mux     *http.ServeMux
	metrics *metrics
}

// Option customises New.
type Option func(*serverConfig)

type serverConfig struct {
	pprof bool
}

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/.
// Off by default: profiles expose internals and cost CPU while running,
// so production deployments opt in explicitly (rknnt-serve -pprof).
func WithPprof() Option {
	return func(c *serverConfig) { c.pprof = true }
}

// New builds a Server over the engine.
func New(e *serve.Engine, opts ...Option) *Server {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{engine: e, mux: http.NewServeMux(), metrics: newMetrics(e.Metrics())}
	if vo := e.VertexOf(); vo != nil {
		s.stopOf = make(map[graph.VertexID]model.StopID, len(vo))
		for stop, v := range vo {
			s.stopOf[v] = stop
		}
	}
	handle := func(pattern, key string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.metrics.instrument(key, h))
	}
	handle("POST /v1/rknnt", "/v1/rknnt", s.handleRkNNT)
	handle("POST /v1/rknnt/batch", "/v1/rknnt/batch", s.handleRkNNTBatch)
	handle("POST /v1/knn", "/v1/knn", s.handleKNN)
	handle("POST /v1/plan", "/v1/plan", s.handlePlan)
	handle("POST /v1/transitions", "POST /v1/transitions", s.handleAddTransitions)
	handle("DELETE /v1/transitions", "DELETE /v1/transitions", s.handleDeleteTransitions)
	handle("POST /v1/transitions/expire", "/v1/transitions/expire", s.handleExpire)
	handle("POST /v1/routes", "POST /v1/routes", s.handleAddRoutes)
	handle("DELETE /v1/routes", "DELETE /v1/routes", s.handleDeleteRoutes)
	handle("GET /v1/routes/{id}", "GET /v1/routes/{id}", s.handleGetRoute)
	handle("POST /v1/snapshot", "/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/watch", s.metrics.instrumentStream("/v1/watch", s.handleWatch))
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("GET /v1/slowlog", "/v1/slowlog", s.handleSlowlog)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	handle("GET /healthz", "/healthz", s.handleHealthz)
	if cfg.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxRequestBody caps JSON request bodies; without it a single
// oversized POST could exhaust server memory.
const maxRequestBody = 8 << 20

// decodeJSON decodes a request body strictly (unknown fields rejected,
// size-capped).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON: %w", err)
	}
	return nil
}

func (s *Server) handleRkNNT(w http.ResponseWriter, r *http.Request) {
	var req rknntRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?trace=1 attaches a per-stage trace to this query and returns it
	// in the response. The trace never enters the cache key (it cannot
	// change the result), so tracing a hot query still hits the cache —
	// the trace then records the cache span and hit event only.
	if r.URL.Query().Get("trace") == "1" {
		opts.Trace = obs.NewTrace()
	}
	query, err := toPoints(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.engine.RkNNT(query, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rknntResponse{
		Transitions: res.Transitions,
		Count:       len(res.Transitions),
		Cached:      res.Cached,
		Repaired:    res.Repaired,
		Shared:      res.Shared,
		Epoch:       res.Epoch,
		EpochVector: res.Epochs,
		Stats: queryStatsDTO{
			FilterMicros: res.Stats.Filter.Microseconds(),
			VerifyMicros: res.Stats.Verify.Microseconds(),
			FilterPoints: res.Stats.FilterPoints,
			FilterRoutes: res.Stats.FilterRoutes,
			RefineNodes:  res.Stats.RefineNodes,
			Candidates:   res.Stats.Candidates,
		},
		Trace: opts.Trace.Data(),
	})
}

// handleRkNNTBatch answers many RkNNT queries sharing one option set in
// a single request: cache misses execute concurrently against one
// snapshot, so every executed answer is valid at the same epoch vector.
// Validation mirrors the single endpoint per query; one invalid query
// rejects the whole request (the batch shares its option set and
// snapshot, so partial answers would mask the caller's bug).
func (s *Server) handleRkNNTBatch(w http.ResponseWriter, r *http.Request) {
	var req rknntBatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no queries in request"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("too many queries: %d > %d", len(req.Queries), maxBatchQueries))
		return
	}
	opts, err := (&rknntRequest{Query: req.Queries[0], K: req.K, Method: req.Method,
		Semantics: req.Semantics, TimeFrom: req.TimeFrom, TimeTo: req.TimeTo}).options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	queries := make([][]geo.Point, len(req.Queries))
	for i, q := range req.Queries {
		if len(q) < 2 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d needs at least 2 points, got %d", i, len(q)))
			return
		}
		if queries[i], err = toPoints(q); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
	}
	results, err := s.engine.RkNNTBatch(queries, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := rknntBatchResponse{Results: make([]rknntBatchItem, len(results)), Count: len(results)}
	for i, res := range results {
		resp.Results[i] = rknntBatchItem{
			Transitions: res.Transitions,
			Count:       len(res.Transitions),
			Cached:      res.Cached,
			Repaired:    res.Repaired,
			Shared:      res.Shared,
			Epoch:       res.Epoch,
			Stats: queryStatsDTO{
				FilterMicros: res.Stats.Filter.Microseconds(),
				VerifyMicros: res.Stats.Verify.Microseconds(),
				FilterPoints: res.Stats.FilterPoints,
				FilterRoutes: res.Stats.FilterRoutes,
				RefineNodes:  res.Stats.RefineNodes,
				Candidates:   res.Stats.Candidates,
			},
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pt, err := req.Point.point()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ids, err := s.engine.KNNRoutes(pt, req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, knnResponse{Routes: ids})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Tau <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("tau must be > 0, got %g", req.Tau))
		return
	}
	res, feasible, err := s.engine.Plan(req.SourceStop, req.TargetStop, req.Tau, req.K, method,
		planner.Options{Objective: obj, MaxExpansions: req.MaxExpansions})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, serve.ErrNoNetwork) {
			status = http.StatusNotImplemented
		}
		writeError(w, status, err)
		return
	}
	if !feasible {
		writeJSON(w, http.StatusOK, planResponse{Feasible: false})
		return
	}
	resp := planResponse{
		Feasible:    true,
		Dist:        res.Dist,
		Transitions: res.Transitions,
		Count:       res.Count,
		Truncated:   res.Truncated,
	}
	if s.stopOf != nil {
		resp.PathStops = make([]model.StopID, len(res.Path))
		for i, v := range res.Path {
			resp.PathStops[i] = s.stopOf[v]
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (req *rknntRequest) options() (opts core.Options, err error) {
	method, err := parseMethod(req.Method)
	if err != nil {
		return opts, err
	}
	sem, err := parseSemantics(req.Semantics)
	if err != nil {
		return opts, err
	}
	if req.K < 1 {
		return opts, fmt.Errorf("k must be >= 1, got %d", req.K)
	}
	if len(req.Query) < 2 {
		return opts, fmt.Errorf("query needs at least 2 points, got %d", len(req.Query))
	}
	opts.K = req.K
	opts.Method = method
	opts.Semantics = sem
	opts.TimeFrom = req.TimeFrom
	opts.TimeTo = req.TimeTo
	return opts, nil
}

func (s *Server) handleAddTransitions(w http.ResponseWriter, r *http.Request) {
	var req addTransitionsRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Transitions) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no transitions in request"))
		return
	}
	ts := make([]model.Transition, len(req.Transitions))
	for i, dto := range req.Transitions {
		o, errO := dto.O.point()
		d, errD := dto.D.point()
		if err := errors.Join(errO, errD); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("transition %d: %w", dto.ID, err))
			return
		}
		ts[i] = model.Transition{ID: dto.ID, O: o, D: d, Time: dto.Time}
	}
	resp := addTransitionsResponse{}
	for i, err := range s.engine.AddTransitions(ts) {
		if err != nil {
			resp.Errors = append(resp.Errors, opError{ID: ts[i].ID, Error: err.Error()})
			continue
		}
		resp.Added++
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteTransitions(w http.ResponseWriter, r *http.Request) {
	var req deleteByIDsRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	existed, err := s.engine.RemoveTransitions(req.IDs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := deleteResponse{}
	for i, ok := range existed {
		if ok {
			resp.Removed++
		} else {
			resp.Missing = append(resp.Missing, req.IDs[i])
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req expireRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n, err := s.engine.ExpireTransitionsBefore(req.Cutoff)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, expireResponse{Removed: n})
}

func (s *Server) handleAddRoutes(w http.ResponseWriter, r *http.Request) {
	var req addRoutesRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Routes) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no routes in request"))
		return
	}
	rs := make([]model.Route, len(req.Routes))
	for i, dto := range req.Routes {
		pts, err := toPoints(dto.Pts)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("route %d: %w", dto.ID, err))
			return
		}
		rs[i] = model.Route{ID: dto.ID, Stops: dto.Stops, Pts: pts}
	}
	errs, recompute := s.engine.AddRoutes(rs)
	if recompute != nil {
		writeError(w, http.StatusInternalServerError, recompute)
		return
	}
	resp := addRoutesResponse{}
	for i, err := range errs {
		if err != nil {
			resp.Errors = append(resp.Errors, opError{ID: rs[i].ID, Error: err.Error()})
			continue
		}
		resp.Added++
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteRoutes(w http.ResponseWriter, r *http.Request) {
	var req deleteByIDsRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	existed, recompute := s.engine.RemoveRoutes(req.IDs)
	if recompute != nil {
		writeError(w, http.StatusInternalServerError, recompute)
		return
	}
	resp := deleteResponse{}
	for i, ok := range existed {
		if ok {
			resp.Removed++
		} else {
			resp.Missing = append(resp.Missing, req.IDs[i])
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetRoute(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad route ID %q", r.PathValue("id")))
		return
	}
	rt := s.engine.Route(model.RouteID(id64))
	if rt == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown route ID %d", id64))
		return
	}
	writeJSON(w, http.StatusOK, routeDTO{ID: rt.ID, Stops: rt.Stops, Pts: fromPoints(rt.Pts)})
}

type statsResponse struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Engine        serve.Stats                 `json:"engine"`
	Endpoints     map[string]endpointStatsDTO `json:"endpoints"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	uptime, endpoints := s.metrics.snapshot()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: uptime,
		Engine:        s.engine.EngineStats(),
		Endpoints:     endpoints,
	})
}

// handleMetrics renders the shared registry in Prometheus text
// exposition format: engine, index, monitor and HTTP families together.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.Metrics().WritePrometheus(w)
}

type slowlogResponse struct {
	Enabled         bool            `json:"enabled"`
	ThresholdMicros int64           `json:"threshold_micros,omitempty"`
	Total           uint64          `json:"total"`
	Entries         []obs.SlowEntry `json:"entries"`
}

// handleSlowlog returns the retained slow-query traces, most recent
// first. With sampling off (no -slowlog), it reports enabled=false.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	sl := s.engine.SlowLog()
	resp := slowlogResponse{Entries: []obs.SlowEntry{}}
	if sl != nil {
		resp.Enabled = true
		resp.ThresholdMicros = sl.Threshold().Microseconds()
		resp.Total = sl.Total()
		resp.Entries = sl.Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"epoch":        s.engine.Epoch(),
		"epoch_vector": s.engine.EpochVector(),
		"routes":       s.engine.NumRoutes(),
		"transitions":  s.engine.NumTransitions(),
	})
}
