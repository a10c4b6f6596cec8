package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/serve"
)

// newTestServer builds a server over the deterministic two-route
// micro-dataset: route 1 at y=10, route 2 at y=100, so a query along
// y=0 with k=1 attracts exactly the transitions near y=0.
func newTestServer(t testing.TB, transitions ...model.Transition) (*Server, *serve.Engine) {
	t.Helper()
	ds := &model.Dataset{
		Routes: []model.Route{
			{ID: 1, Stops: []model.StopID{0, 1}, Pts: []geo.Point{geo.Pt(0, 10), geo.Pt(10, 10)}},
			{ID: 2, Stops: []model.StopID{2, 3}, Pts: []geo.Point{geo.Pt(0, 100), geo.Pt(10, 100)}},
		},
		Transitions: transitions,
	}
	x, err := index.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.New(x, serve.Options{})
	t.Cleanup(e.Close)
	return New(e), e
}

func doJSON(t testing.TB, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeBody[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return v
}

var y0Query = []PointDTO{{X: 0, Y: 0}, {X: 10, Y: 0}}

func TestRkNNTEndpoint(t *testing.T) {
	s, _ := newTestServer(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})

	w := doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[rknntResponse](t, w)
	if resp.Count != 1 || resp.Transitions[0] != 7 {
		t.Errorf("unexpected result %+v", resp)
	}
	if resp.Cached {
		t.Error("first query reported cached")
	}
	w = doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1})
	if resp := decodeBody[rknntResponse](t, w); !resp.Cached {
		t.Error("repeat query not cached")
	}
}

func TestRkNNTErrors(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"bad JSON", `{"query": [`},
		{"unknown field", `{"qqq": 1}`},
		{"k zero", `{"query":[{"x":0,"y":0},{"x":1,"y":0}],"k":0}`},
		{"k negative", `{"query":[{"x":0,"y":0},{"x":1,"y":0}],"k":-3}`},
		{"one-point query", `{"query":[{"x":0,"y":0}],"k":1}`},
		{"bad method", `{"query":[{"x":0,"y":0},{"x":1,"y":0}],"k":1,"method":"zz"}`},
		{"bad semantics", `{"query":[{"x":0,"y":0},{"x":1,"y":0}],"k":1,"semantics":"zz"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/rknnt", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", w.Code, w.Body)
			}
			if resp := decodeBody[errorResponse](t, w); resp.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestRkNNTBatchEndpoint(t *testing.T) {
	s, _ := newTestServer(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})

	w := doJSON(t, s, "POST", "/v1/rknnt/batch", rknntBatchRequest{
		Queries: [][]PointDTO{y0Query, y0Query, {{X: 0, Y: 50}, {X: 10, Y: 50}}},
		K:       1,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[rknntBatchResponse](t, w)
	if resp.Count != 3 || len(resp.Results) != 3 {
		t.Fatalf("count %d, results %d, want 3", resp.Count, len(resp.Results))
	}
	if resp.Results[0].Count != 1 || resp.Results[0].Transitions[0] != 7 {
		t.Errorf("query 0: %+v", resp.Results[0])
	}
	if !resp.Results[1].Shared {
		t.Errorf("duplicate query not shared: %+v", resp.Results[1])
	}
	// Repeat: everything comes from the cache.
	w = doJSON(t, s, "POST", "/v1/rknnt/batch", rknntBatchRequest{
		Queries: [][]PointDTO{y0Query}, K: 1,
	})
	if resp := decodeBody[rknntBatchResponse](t, w); !resp.Results[0].Cached {
		t.Errorf("repeat batch query not cached: %+v", resp.Results[0])
	}
}

func TestRkNNTBatchErrors(t *testing.T) {
	s, _ := newTestServer(t)
	big := rknntBatchRequest{K: 1}
	for i := 0; i <= maxBatchQueries; i++ {
		big.Queries = append(big.Queries, y0Query)
	}
	cases := []struct {
		name string
		body any
	}{
		{"no queries", rknntBatchRequest{K: 1}},
		{"k zero", rknntBatchRequest{Queries: [][]PointDTO{y0Query}, K: 0}},
		{"one-point member", rknntBatchRequest{Queries: [][]PointDTO{y0Query, {{X: 1, Y: 1}}}, K: 1}},
		{"bad method", rknntBatchRequest{Queries: [][]PointDTO{y0Query}, K: 1, Method: "zz"}},
		{"too many queries", big},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := doJSON(t, s, "POST", "/v1/rknnt/batch", tc.body); w.Code != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", w.Code, w.Body)
			}
		})
	}
}

func TestKNNEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	w := doJSON(t, s, "POST", "/v1/knn", knnRequest{Point: PointDTO{X: 5, Y: 0}, K: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[knnResponse](t, w)
	if len(resp.Routes) != 2 || resp.Routes[0] != 1 {
		t.Errorf("routes %v, want [1 2]", resp.Routes)
	}
	if w := doJSON(t, s, "POST", "/v1/knn", knnRequest{Point: PointDTO{X: 5, Y: 0}, K: 0}); w.Code != http.StatusBadRequest {
		t.Errorf("k=0: status %d, want 400", w.Code)
	}
}

func TestTransitionsEndpoints(t *testing.T) {
	s, e := newTestServer(t)

	w := doJSON(t, s, "POST", "/v1/transitions", addTransitionsRequest{Transitions: []transitionDTO{
		{ID: 1, O: PointDTO{1, 0}, D: PointDTO{2, 0}, Time: 100},
		{ID: 2, O: PointDTO{3, 0}, D: PointDTO{4, 0}, Time: 200},
		{ID: 1, O: PointDTO{5, 0}, D: PointDTO{6, 0}}, // duplicate
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[addTransitionsResponse](t, w)
	if resp.Added != 2 || len(resp.Errors) != 1 || resp.Errors[0].ID != 1 {
		t.Errorf("unexpected add response %+v", resp)
	}
	if e.NumTransitions() != 2 {
		t.Errorf("engine has %d transitions, want 2", e.NumTransitions())
	}

	// Empty batch is a client error.
	if w := doJSON(t, s, "POST", "/v1/transitions", addTransitionsRequest{}); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", w.Code)
	}

	// Expiry drops the older one.
	wExp := doJSON(t, s, "POST", "/v1/transitions/expire", expireRequest{Cutoff: 150})
	if resp := decodeBody[expireResponse](t, wExp); resp.Removed != 1 {
		t.Errorf("expire removed %d, want 1", resp.Removed)
	}

	// Batch delete: one hit, one miss.
	wDel := doJSON(t, s, "DELETE", "/v1/transitions", deleteByIDsRequest{IDs: []int32{2, 99}})
	respDel := decodeBody[deleteResponse](t, wDel)
	if respDel.Removed != 1 || len(respDel.Missing) != 1 || respDel.Missing[0] != 99 {
		t.Errorf("unexpected delete response %+v", respDel)
	}
}

func TestRoutesEndpoints(t *testing.T) {
	s, _ := newTestServer(t)

	w := doJSON(t, s, "POST", "/v1/routes", addRoutesRequest{Routes: []routeDTO{
		{ID: 5, Stops: []model.StopID{7, 8}, Pts: []PointDTO{{0, 50}, {10, 50}}},
		{ID: 6, Stops: []model.StopID{9}, Pts: []PointDTO{{0, 60}}}, // too short
	}})
	resp := decodeBody[addRoutesResponse](t, w)
	if resp.Added != 1 || len(resp.Errors) != 1 || resp.Errors[0].ID != 6 {
		t.Errorf("unexpected add response %+v", resp)
	}

	wGet := doJSON(t, s, "GET", "/v1/routes/5", nil)
	if wGet.Code != http.StatusOK {
		t.Fatalf("GET route: status %d", wGet.Code)
	}
	rt := decodeBody[routeDTO](t, wGet)
	if rt.ID != 5 || len(rt.Pts) != 2 {
		t.Errorf("unexpected route %+v", rt)
	}

	// Unknown route ID is 404; malformed is 400.
	if w := doJSON(t, s, "GET", "/v1/routes/42", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", w.Code)
	}
	if w := doJSON(t, s, "GET", "/v1/routes/zap", nil); w.Code != http.StatusBadRequest {
		t.Errorf("malformed route ID: status %d, want 400", w.Code)
	}

	wDel := doJSON(t, s, "DELETE", "/v1/routes", deleteByIDsRequest{IDs: []int32{5, 42}})
	respDel := decodeBody[deleteResponse](t, wDel)
	if respDel.Removed != 1 || len(respDel.Missing) != 1 || respDel.Missing[0] != 42 {
		t.Errorf("unexpected delete response %+v", respDel)
	}
}

func TestPlanEndpoint(t *testing.T) {
	city, err := gen.Generate(gen.Config{
		Seed:  5,
		Width: 8, Height: 8,
		GridStep:       1.6,
		Jitter:         0.2,
		NumRoutes:      12,
		RouteMinStops:  3,
		RouteMaxStops:  8,
		NumTransitions: 150,
		HotspotCount:   5,
		HotspotSigma:   1.0,
		BackgroundFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	vertexOf := make(map[model.StopID]graph.VertexID, city.Graph.NumVertices())
	for i := 0; i < city.Graph.NumVertices(); i++ {
		vertexOf[model.StopID(i)] = graph.VertexID(i)
	}
	e := serve.New(x, serve.Options{Network: city.Graph, VertexOf: vertexOf})
	t.Cleanup(e.Close)
	s := New(e)

	r := city.Dataset.Routes[0]
	src, dst := r.Stops[0], r.Stops[len(r.Stops)-1]
	w := doJSON(t, s, "POST", "/v1/plan", planRequest{
		SourceStop: src, TargetStop: dst, Tau: 4 * r.TravelDist(), K: 4, Method: "vo",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[planResponse](t, w)
	if !resp.Feasible || len(resp.PathStops) < 2 {
		t.Errorf("unexpected plan %+v", resp)
	}
	if resp.PathStops[0] != src || resp.PathStops[len(resp.PathStops)-1] != dst {
		t.Errorf("plan endpoints %v, want %d..%d", resp.PathStops, src, dst)
	}

	// Unknown stop and bad tau are client errors.
	if w := doJSON(t, s, "POST", "/v1/plan", planRequest{SourceStop: -9, TargetStop: dst, Tau: 10, K: 2}); w.Code != http.StatusBadRequest {
		t.Errorf("unknown stop: status %d, want 400", w.Code)
	}
	if w := doJSON(t, s, "POST", "/v1/plan", planRequest{SourceStop: src, TargetStop: dst, Tau: 0, K: 2}); w.Code != http.StatusBadRequest {
		t.Errorf("tau=0: status %d, want 400", w.Code)
	}
	if w := doJSON(t, s, "POST", "/v1/plan", planRequest{SourceStop: src, TargetStop: dst, Tau: 10, K: 2, Objective: "zz"}); w.Code != http.StatusBadRequest {
		t.Errorf("bad objective: status %d, want 400", w.Code)
	}
}

func TestPlanWithoutNetwork(t *testing.T) {
	s, _ := newTestServer(t)
	w := doJSON(t, s, "POST", "/v1/plan", planRequest{SourceStop: 0, TargetStop: 1, Tau: 10, K: 1})
	if w.Code != http.StatusNotImplemented {
		t.Errorf("status %d, want 501", w.Code)
	}
}

func TestHealthAndStats(t *testing.T) {
	s, _ := newTestServer(t, model.Transition{ID: 1, O: geo.Pt(1, 0), D: geo.Pt(2, 0)})

	w := doJSON(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	health := decodeBody[map[string]any](t, w)
	if health["status"] != "ok" || health["transitions"].(float64) != 1 {
		t.Errorf("unexpected health %+v", health)
	}

	doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1})
	doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1}) // cache hit
	doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 0}) // error

	w = doJSON(t, s, "GET", "/v1/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	stats := decodeBody[statsResponse](t, w)
	ep, ok := stats.Endpoints["/v1/rknnt"]
	if !ok {
		t.Fatalf("no /v1/rknnt endpoint stats: %+v", stats.Endpoints)
	}
	if ep.Count != 3 || ep.Errors != 1 {
		t.Errorf("endpoint counters %+v, want count=3 errors=1", ep)
	}
	if stats.Engine.CacheHits != 1 || stats.Engine.QueriesRun == 0 {
		t.Errorf("engine counters %+v", stats.Engine)
	}
	// The sharded transition index surfaces its shard count and
	// occupancy through /v1/stats.
	if stats.Engine.Shards < 1 {
		t.Errorf("stats report %d shards, want >= 1", stats.Engine.Shards)
	}
	if len(stats.Engine.ShardSizes) != stats.Engine.Shards {
		t.Errorf("shard occupancy %v does not match shard count %d", stats.Engine.ShardSizes, stats.Engine.Shards)
	}
	total := 0
	for _, n := range stats.Engine.ShardSizes {
		total += n
	}
	if total != 2*stats.Engine.Transitions {
		t.Errorf("shard occupancy sums to %d endpoints, want %d", total, 2*stats.Engine.Transitions)
	}
	if stats.UptimeSeconds <= 0 {
		t.Error("non-positive uptime")
	}
}

// sseClient collects events from a /v1/watch stream over a real HTTP
// connection.
type sseEvent struct {
	name string
	data string
}

func readSSE(t testing.TB, body *bufio.Reader, events chan<- sseEvent) {
	var ev sseEvent
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			close(events)
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if ev.name != "" {
				events <- ev
				ev = sseEvent{}
			}
		}
	}
}

func TestWatchSSE(t *testing.T) {
	s, _ := newTestServer(t, model.Transition{ID: 3, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/watch?p=0,0&p=10,0&k=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := make(chan sseEvent, 16)
	go readSSE(t, bufio.NewReader(resp.Body), events)

	next := func() sseEvent {
		select {
		case ev := <-events:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for SSE event")
			return sseEvent{}
		}
	}

	ev := next()
	if ev.name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", ev.name)
	}
	var snap watchSnapshot
	if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Transitions) != 1 || snap.Transitions[0] != 3 {
		t.Errorf("snapshot %+v, want [3]", snap)
	}

	// A matching write streams a delta.
	w := doJSON(t, s, "POST", "/v1/transitions", addTransitionsRequest{Transitions: []transitionDTO{
		{ID: 4, O: PointDTO{2, 0}, D: PointDTO{8, 0}},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("add status %d", w.Code)
	}
	ev = next()
	if ev.name != "delta" {
		t.Fatalf("event %q, want delta", ev.name)
	}
	var delta watchDelta
	if err := json.Unmarshal([]byte(ev.data), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Transition != 4 || !delta.Added {
		t.Errorf("delta %+v, want {4 true}", delta)
	}
}

// TestNonFiniteCoordinates: 1e200 is valid JSON and a valid float64 but
// squares to +Inf; every decoder that takes a coordinate answers 400 and
// nothing reaches the index.
func TestNonFiniteCoordinates(t *testing.T) {
	s, e := newTestServer(t)
	before := e.EngineStats()
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/rknnt", `{"query":[{"x":0,"y":0},{"x":1e200,"y":0}],"k":1}`},
		{"POST", "/v1/rknnt", `{"query":[{"x":0,"y":-1e151},{"x":1,"y":0}],"k":1,"method":"bf"}`},
		{"POST", "/v1/rknnt/batch", `{"queries":[[{"x":0,"y":0},{"x":1,"y":0}],[{"x":0,"y":0},{"x":0,"y":1e300}]],"k":1}`},
		{"POST", "/v1/knn", `{"point":{"x":1e200,"y":0},"k":1}`},
		{"POST", "/v1/transitions", `{"transitions":[{"id":1,"o":{"x":0,"y":0},"d":{"x":1,"y":1}},{"id":2,"o":{"x":1e200,"y":0},"d":{"x":1,"y":1}}]}`},
		{"POST", "/v1/routes", `{"routes":[{"id":9,"stops":[50,51],"pts":[{"x":0,"y":0},{"x":0,"y":-1e200}]}]}`},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.method, tc.path, w.Code, w.Body)
		}
	}
	if after := e.EngineStats(); after.Transitions != before.Transitions || after.Routes != before.Routes || after.Epoch != before.Epoch {
		t.Errorf("a rejected request changed the index: %+v -> %+v", before.EpochVector, after.EpochVector)
	}
	// The largest accepted magnitude still answers.
	if w := doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: []PointDTO{{X: 1e150, Y: -1e150}, {X: 0, Y: 0}}, K: 1}); w.Code != http.StatusOK {
		t.Errorf("boundary coordinate: status %d (%s)", w.Code, w.Body)
	}
}

func TestWatchErrors(t *testing.T) {
	s, _ := newTestServer(t)
	for _, path := range []string{
		"/v1/watch",                               // missing points
		"/v1/watch?p=0,0&k=1",                     // one point
		"/v1/watch?p=a,b&p=c,d&k=1",               // bad coordinates
		"/v1/watch?p=0,0&p=10&k=1",                // missing coordinate
		"/v1/watch?p=0,0&p=10,0",                  // missing k
		"/v1/watch?p=0,0&p=10,0&k=0",              // k < 1
		"/v1/watch?p=0,0&p=10,0&k=1&semantics=zz", // bad semantics
		"/v1/watch?p=0,0&p=1e200,0&k=1",           // square overflows
		"/v1/watch?p=NaN,0&p=1,0&k=1",             // NaN parses as a float
	} {
		if w := doJSON(t, s, "GET", path, nil); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, w.Code)
		}
	}
}

// TestServerRaceStress is the acceptance stress test: concurrent HTTP
// RkNNT queries, batched transition writes and one live SSE standing
// query, under -race.
func TestServerRaceStress(t *testing.T) {
	city, err := gen.Generate(gen.LA(64))
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.New(x, serve.Options{CacheSize: 64})
	t.Cleanup(e.Close)
	s := New(e)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One SSE standing query watches a synthetic route while the storm
	// runs.
	rng := rand.New(rand.NewSource(21))
	watched := city.Query(rng, 3, 3)
	var watchURL strings.Builder
	watchURL.WriteString(ts.URL + "/v1/watch?k=8")
	for _, p := range watched {
		fmt.Fprintf(&watchURL, "&p=%g,%g", p.X, p.Y)
	}
	resp, err := http.Get(watchURL.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	events := make(chan sseEvent, 1024)
	go readSSE(t, bufio.NewReader(resp.Body), events)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range events {
		}
	}()

	queries := make([][]PointDTO, 8)
	for i := range queries {
		q := city.Query(rng, 3, 3)
		queries[i] = fromPoints(q)
	}

	const readers, writers, iters = 6, 3, 30
	var wg sync.WaitGroup
	for rr := 0; rr < readers; rr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				q := queries[rng.Intn(len(queries))]
				w := doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: q, K: 4})
				if w.Code != http.StatusOK {
					t.Errorf("rknnt status %d: %s", w.Code, w.Body)
					return
				}
			}
		}(int64(50 + rr))
	}
	for ww := 0; ww < writers; ww++ {
		wg.Add(1)
		go func(base int32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(base)))
			for i := int32(0); i < iters; i++ {
				id := 2_000_000 + base*iters + i
				batch := addTransitionsRequest{Transitions: []transitionDTO{{
					ID: id,
					O:  PointDTO{X: rng.Float64() * 50, Y: rng.Float64() * 40},
					D:  PointDTO{X: rng.Float64() * 50, Y: rng.Float64() * 40},
				}}}
				if w := doJSON(t, s, "POST", "/v1/transitions", batch); w.Code != http.StatusOK {
					t.Errorf("add status %d", w.Code)
					return
				}
				if i%2 == 0 {
					if w := doJSON(t, s, "DELETE", "/v1/transitions", deleteByIDsRequest{IDs: []int32{id}}); w.Code != http.StatusOK {
						t.Errorf("delete status %d", w.Code)
						return
					}
				}
			}
		}(int32(ww))
	}
	wg.Wait()

	w := doJSON(t, s, "GET", "/v1/stats", nil)
	stats := decodeBody[statsResponse](t, w)
	if stats.Engine.Batches == 0 || stats.Engine.Standing != 1 {
		t.Errorf("unexpected engine stats after stress: %+v", stats.Engine)
	}
	resp.Body.Close()
	<-drained
}
