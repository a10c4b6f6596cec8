package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// sampleLine matches a Prometheus text-format sample:
// name{label="v",...} value
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ` +
		`(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]?Inf|NaN)$`)

// TestMetricsExposition scrapes /metrics after some traffic and checks
// the output is well-formed text format and carries the families the
// dashboards scrape for.
func TestMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})

	// One miss, one hit, so cache counters move.
	doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1})
	doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1})

	w := doJSON(t, s, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}

	body := w.Body.String()
	typed := make(map[string]bool) // families with a # TYPE line
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			typed[fields[2]] = true
		case strings.HasPrefix(line, "# HELP "):
			// free-form help text
		case sampleLine.MatchString(line):
			// well-formed sample
		default:
			t.Errorf("malformed exposition line %q", line)
		}
	}

	for _, fam := range []string{
		"rknnt_query_seconds",
		"rknnt_http_request_seconds",
		"rknnt_cache_hits_total",
		"rknnt_cache_misses_total",
		"rknnt_shard_write_seconds",
		"rknnt_snapshot_save_seconds",
		"rknnt_queries_executed_total",
		"rknnt_http_requests_total",
		"rknnt_transitions",
	} {
		if !typed[fam] {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	// Spot-check values: the repeat query above must have hit the cache.
	if !strings.Contains(body, "rknnt_cache_hits_total 1") {
		t.Errorf("cache hit not visible in exposition:\n%s", grepLines(body, "rknnt_cache_"))
	}
	if !strings.Contains(body, `rknnt_http_requests_total{endpoint="/v1/rknnt"} 2`) {
		t.Errorf("http request count wrong:\n%s", grepLines(body, "rknnt_http_requests_total"))
	}
}

func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestRkNNTTrace checks that ?trace=1 returns the per-stage span
// breakdown — one "descent" span when the k has a radius plane, the
// pipeline's filter/prune/verify spans when it does not — and that the
// cached path reports a cache_hit event.
func TestRkNNTTrace(t *testing.T) {
	s, e := newTestServer(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})

	traced := func(q []PointDTO, k int) map[string]bool {
		t.Helper()
		w := doJSON(t, s, "POST", "/v1/rknnt?trace=1", rknntRequest{Query: q, K: k})
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		resp := decodeBody[rknntResponse](t, w)
		if resp.Trace == nil {
			t.Fatal("no trace in response despite ?trace=1")
		}
		spans := make(map[string]bool)
		for _, sp := range resp.Trace.Spans {
			spans[sp.Name] = true
			if strings.HasPrefix(sp.Name, "prune/s") {
				spans["prune"] = true
			}
			if sp.DurMicros < 0 || sp.StartMicros < 0 {
				t.Errorf("span %+v has negative timing", sp)
			}
		}
		return spans
	}
	pipeline := func(label string, spans map[string]bool) {
		t.Helper()
		for _, want := range []string{"cache", "filter", "verify", "prune"} {
			if !spans[want] || spans["descent"] {
				t.Errorf("%s: span %q missing or descent present; got %v", label, want, spans)
			}
		}
	}
	// No k has a radius plane yet: the paper's pipeline answers.
	pipeline("first query", traced(y0Query, 1))
	// Traffic at k=1 earns it the plane, built in the background; from
	// then on a query at k=1 is one descent and k=2 still the pipeline.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; e.EngineStats().RadiusPlaneK != 1; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no radius plane for k=1 after %d queries", i)
		}
		q := []PointDTO{{X: 1, Y: float64(i) / 64}, {X: 9, Y: 0}}
		if w := doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: q, K: 1}); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	if spans := traced([]PointDTO{{X: 2, Y: 0}, {X: 8, Y: 0}}, 1); !spans["cache"] || !spans["descent"] || spans["filter"] || spans["verify"] {
		t.Errorf("k=1 (plane): spans %v, want cache + descent only", spans)
	}
	pipeline("k without the plane", traced(y0Query, 2))

	// Cached repeat: trace still present, with a cache_hit event and no
	// pipeline spans beyond the cache lookup.
	w := doJSON(t, s, "POST", "/v1/rknnt?trace=1", rknntRequest{Query: y0Query, K: 1})
	resp := decodeBody[rknntResponse](t, w)
	if resp.Trace == nil {
		t.Fatal("no trace on cached response")
	}
	hit := false
	for _, ev := range resp.Trace.Events {
		if ev.Name == "cache_hit" {
			hit = true
		}
	}
	if !hit {
		t.Errorf("cached response lacks cache_hit event; events %v", resp.Trace.Events)
	}

	// Without the flag, no trace is attached.
	w = doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: []PointDTO{{X: 1, Y: 0}, {X: 9, Y: 0}}, K: 1})
	if resp := decodeBody[rknntResponse](t, w); resp.Trace != nil {
		t.Error("trace attached without ?trace=1")
	}
}

// TestSlowlogEndpoint drives the engine with a zero-ish threshold so
// every query is "slow", then reads the ring back over HTTP.
func TestSlowlogEndpoint(t *testing.T) {
	ds := &model.Dataset{
		Routes: []model.Route{
			{ID: 1, Stops: []model.StopID{0, 1}, Pts: []geo.Point{geo.Pt(0, 10), geo.Pt(10, 10)}},
		},
		Transitions: []model.Transition{{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)}},
	}
	x, err := index.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.New(x, serve.Options{SlowLog: obs.NewSlowLog(time.Nanosecond, 8)})
	t.Cleanup(e.Close)
	s := New(e)

	doJSON(t, s, "POST", "/v1/rknnt", rknntRequest{Query: y0Query, K: 1})

	w := doJSON(t, s, "GET", "/v1/slowlog", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[slowlogResponse](t, w)
	if !resp.Enabled {
		t.Fatal("slowlog reported disabled")
	}
	if resp.Total == 0 || len(resp.Entries) == 0 {
		t.Fatalf("no slow entries captured: %+v", resp)
	}
	ent := resp.Entries[0]
	if ent.Trace == nil || len(ent.Trace.Spans) == 0 {
		t.Errorf("slow entry lacks trace spans: %+v", ent)
	}
	if !strings.Contains(ent.Detail, "rknnt") {
		t.Errorf("slow entry detail %q lacks query description", ent.Detail)
	}

	// A server without a slow log still answers, disabled.
	s2, _ := newTestServer(t)
	resp = decodeBody[slowlogResponse](t, doJSON(t, s2, "GET", "/v1/slowlog", nil))
	if resp.Enabled {
		t.Error("slowlog reported enabled without configuration")
	}
}

// TestPprofGate checks /debug/pprof/ is absent by default and mounted
// with WithPprof.
func TestPprofGate(t *testing.T) {
	s, e := newTestServer(t)
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("pprof reachable without WithPprof: status %d", w.Code)
	}

	sp := New(e, WithPprof())
	w = httptest.NewRecorder()
	sp.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("pprof index status %d with WithPprof", w.Code)
	}
}
