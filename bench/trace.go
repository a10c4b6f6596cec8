package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/serve"
	httpapi "repro/internal/server"
)

// traceWorkload labels the traced run's report line in a report file.
const traceWorkload = "trace"

// tracePrefix is how many merged ops of each stream the traced run
// replays (batch ops carry 32 queries, plan ops come five to a cycle).
var tracePrefix = map[string]int{
	"read_cold":    150,
	"read_hot":     1000,
	"batch_cold":   8,
	"mixed_stream": 1000,
	"plan_fresh":   8 * (plansPerCycle + 1),
}

// span is one timed interval. Spans are recorded by benchmark code only:
// client and server.handle are truly nested (keyed by a request header);
// serve.* and core.*/index.*/planner.* are the same op replayed on a bare
// engine and a bare index, attached as children.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// traceReport is what the traced run produced.
type traceReport struct {
	Workload  string   `json:"workload"` // always traceWorkload
	Seed      int64    `json:"seed"`
	Host      hostInfo `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []value  `json:"metrics"` // the per-layer metrics of BENCHMARK.json
	Shares    []share  `json:"shares"`
	WallS     float64  `json:"wall_s"`
}

// share is one workload's row of the isolation table: where the client
// span went, by layer self time.
type share struct {
	Workload string  `json:"workload"`
	Ops      int     `json:"ops"`
	ClientMs float64 `json:"client_ms"`
	Net      float64 `json:"net"`
	Server   float64 `json:"server"`
	Serve    float64 `json:"serve"`
	Below    float64 `json:"below"` // core, index or planner: the layer under the engine
}

// tracer accumulates spans and metric samples in memory.
type tracer struct {
	t0      time.Time
	spans   []span
	samples map[string][]float64
	shares  []share

	attempted, failed int
	failures          []string
}

func (t *tracer) rec(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) span(w string, op int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{w, op, name, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// handleTimes is the benchmark's timing middleware: it wraps the server's
// handler and notes when each identified request entered and left it.
type handleTimes struct {
	mu sync.Mutex
	at map[string][2]time.Time
}

func (h *handleTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(opHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		h.mu.Lock()
		h.at[id] = [2]time.Time{t0, t1}
		h.mu.Unlock()
	})
}

func (h *handleTimes) take(id string) (time.Time, time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.at[id]
	delete(h.at, id)
	return v[0], v[1]
}

// twins are three identically loaded copies of one city: A behind the
// real HTTP handler on a loopback listener, B a bare engine, C a bare
// index. Every op is applied to all three.
type twins struct {
	city   *gen.City
	dir    string
	engA   *serve.Engine
	httpA  *http.Server
	addrA  string
	handle *handleTimes
	engB   *serve.Engine
	idxC   *index.Index
	preC   *planner.Precomputed // C's planner precomputation; nil once a write made it stale
	client *client
}

func identityVertices(g *graph.Graph) map[model.StopID]graph.VertexID {
	m := make(map[model.StopID]graph.VertexID, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		m[model.StopID(i)] = graph.VertexID(i)
	}
	return m
}

// engineOptions mirrors what cmd/rknnt-serve passes with default flags.
func engineOptions(w *workload, city *gen.City) serve.Options {
	o := serve.Options{CacheSize: 4096, MaxBatch: 256}
	if w.planner {
		o.Network, o.VertexOf = city.Graph, identityVertices(city.Graph)
	}
	return o
}

func newTwins(w *workload, dir string) (*twins, error) {
	city, err := gen.Generate(w.cityConfig())
	if err != nil {
		return nil, err
	}
	tw := &twins{city: city, dir: dir, handle: &handleTimes{at: make(map[string][2]time.Time)}, client: newClient()}
	var idx [3]*index.Index
	for i := range idx {
		if idx[i], err = index.Build(city.Dataset); err != nil {
			return nil, err
		}
	}
	tw.engA = serve.New(idx[0], engineOptions(w, city))
	tw.engB = serve.New(idx[1], engineOptions(w, city))
	tw.idxC = idx[2]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tw.addrA = ln.Addr().String()
	tw.httpA = &http.Server{Handler: tw.handle.wrap(httpapi.New(tw.engA))}
	go func() { _ = tw.httpA.Serve(ln) }() // returns ErrServerClosed at close
	return tw, nil
}

func (tw *twins) close() {
	tw.client.close()
	_ = tw.httpA.Close() // loopback listener of this process; nothing to flush
	tw.engA.Close()
	tw.engB.Close()
}

// outcome is what one twin answered, reduced to what must agree.
type outcome struct {
	ids      [][]int32 // per query
	n        int       // adds, removals, expiries, or plan count
	dist     float64   // plan
	cached   bool
	repaired bool
	executed int // queries that ran the core pipeline
	stats    []*core.Stats
}

func (a *outcome) same(b *outcome) bool {
	if a.n != b.n || a.dist != b.dist || len(a.ids) != len(b.ids) {
		return false
	}
	for i := range a.ids {
		if !slices.Equal(a.ids[i], b.ids[i]) {
			return false
		}
	}
	return true
}

var queryOpts = core.Options{K: queryK, Method: core.DivideConquer}

// viaHTTP decodes twin A's response.
func viaHTTP(o *op, body []byte) (*outcome, error) {
	out := &outcome{}
	switch o.kind {
	case opRkNNT:
		var r rknntResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out.ids, out.cached, out.repaired = [][]int32{r.Transitions}, r.Cached, r.Repaired
	case opBatch:
		var r batchResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		for _, it := range r.Results {
			out.ids = append(out.ids, it.Transitions)
		}
	case opAdd:
		var r addResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out.n = r.Added
	case opDelete:
		var r deleteResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out.n = r.Removed
	case opExpire:
		var r expireResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out.n = r.Removed
	case opPlan:
		var r planResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out.n, out.dist, out.ids = r.Count, r.Dist, [][]int32{r.Transitions}
	}
	return out, nil
}

// viaEngine applies the op to a bare engine, as the handler would.
func viaEngine(e *serve.Engine, o *op, snapshotPath string) (*outcome, error) {
	out := &outcome{}
	switch o.kind {
	case opRkNNT:
		r, err := e.RkNNT(o.queries[0], queryOpts)
		if err != nil {
			return nil, err
		}
		out.ids, out.cached, out.repaired = [][]int32{r.Transitions}, r.Cached, r.Repaired
		if !r.Cached {
			out.executed = 1
		}
	case opBatch:
		rs, err := e.RkNNTBatch(o.queries, queryOpts)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			out.ids = append(out.ids, r.Transitions)
			if !r.Cached {
				out.executed++
			}
		}
	case opAdd:
		for _, err := range e.AddTransitions(o.adds) {
			if err == nil {
				out.n++
			}
		}
	case opDelete:
		existed, err := e.RemoveTransitions(o.ids)
		if err != nil {
			return nil, err
		}
		for _, ok := range existed {
			if ok {
				out.n++
			}
		}
	case opExpire:
		n, err := e.ExpireTransitionsBefore(o.cutoff)
		if err != nil {
			return nil, err
		}
		out.n = n
	case opSnapshot:
		if _, err := e.Checkpoint(snapshotPath, true); err != nil {
			return nil, err
		}
	case opPlan:
		r, ok, err := e.Plan(o.src, o.dst, o.tau, queryK, core.DivideConquer, planner.Options{})
		if err != nil || !ok {
			return nil, fmt.Errorf("plan %d->%d: feasible %v, %v", o.src, o.dst, ok, err)
		}
		out.n, out.dist, out.ids = r.Count, r.Dist, [][]int32{r.Transitions}
	}
	return out, nil
}

// viaIndex applies the op to the bare index through core, index and
// planner: the work the engine's own layer sits on top of.
func (tw *twins) viaIndex(o *op) (*outcome, error) {
	out := &outcome{}
	opts := queryOpts
	opts.Parallel = true // as the engine runs it
	switch o.kind {
	case opRkNNT:
		ids, st, err := core.RkNNT(tw.idxC, o.queries[0], opts)
		if err != nil {
			return nil, err
		}
		out.ids, out.stats = [][]int32{ids}, []*core.Stats{st}
	case opBatch:
		ids, st, err := core.BatchRkNNT(tw.idxC, o.queries, opts)
		if err != nil {
			return nil, err
		}
		out.ids, out.stats = ids, st
	case opAdd:
		tw.preC = nil
		for _, err := range tw.idxC.AddTransitionsBatch(o.adds) {
			if err == nil {
				out.n++
			}
		}
	case opDelete:
		tw.preC = nil
		for _, ok := range tw.idxC.RemoveTransitionsBatch(o.ids) {
			if ok {
				out.n++
			}
		}
	case opExpire:
		tw.preC = nil
		out.n = tw.idxC.ExpireTransitionsBefore(o.cutoff)
	case opPlan:
		r, ok, err := tw.preC.Plan(o.src, o.dst, o.tau, planner.Options{})
		if err != nil || !ok {
			return nil, fmt.Errorf("plan %d->%d: feasible %v, %v", o.src, o.dst, ok, err)
		}
		out.n, out.dist, out.ids = r.Count, r.Dist, [][]int32{r.Transitions}
	}
	return out, nil
}

// below names the layer under the engine for an op kind.
func below(k opKind) string {
	switch k {
	case opRkNNT, opBatch:
		return "core"
	case opPlan:
		return "planner"
	}
	return "index"
}

// replay runs the workload's merged prefix through the three twins at
// concurrency 1, recording spans and the samples of the layer metrics.
func (t *tracer) replay(w *workload, tw *twins, seed int64, record bool) (clientUs []float64) {
	snapA := filepath.Join(tw.dir, w.name+".a.arena")
	snapB := filepath.Join(tw.dir, w.name+".b.arena")
	var sh share
	var flags [3]int // hit, repaired, executed as twin A's responses flag them
	ops := mergedPrefix(w, tw.city, seed, tracePrefix[w.name])
	for n := range ops {
		o := &ops[n]
		t.attempted++
		id := ""
		if record {
			id = strconv.Itoa(n)
		}
		// A: over the wire.
		req := o.encode(snapA)
		c0 := time.Now()
		status, body, err := tw.client.do(tw.addrA, req, id)
		c1 := time.Now()
		if err != nil || status != http.StatusOK {
			t.fail("%s op %d (%s): status %d, %v", w.name, n, o.kind, status, err)
			continue
		}
		clientUs = append(clientUs, us(c1.Sub(c0)))
		if !record {
			// Keep the engine twin's cache in step, record nothing.
			if _, err := viaEngine(tw.engB, o, snapB); err != nil {
				t.fail("%s op %d (%s): engine: %v", w.name, n, o.kind, err)
			}
			continue
		}
		respBytes := len(body)
		a, err := viaHTTP(o, body)
		if err != nil {
			t.fail("%s op %d (%s): bad response: %v", w.name, n, o.kind, err)
			continue
		}
		h0, h1 := tw.handle.take(id)

		// B: the engine alone.
		b0 := time.Now()
		b, err := viaEngine(tw.engB, o, snapB)
		b1 := time.Now()
		if err != nil {
			t.fail("%s op %d (%s): engine: %v", w.name, n, o.kind, err)
			continue
		}

		// C: the layer below, when the engine went there. A checkpoint
		// has no index-level twin (dataio is timed directly).
		var cDur, preDur time.Duration
		var c *outcome
		x0 := time.Now()
		ran := o.kind != opSnapshot && !(o.kind <= opBatch && b.executed == 0)
		if ran {
			if o.kind == opPlan && tw.preC == nil {
				p0 := time.Now()
				tw.preC, err = planner.Precompute(tw.idxC, tw.city.Graph, queryK, core.DivideConquer)
				preDur = time.Since(p0)
				if err != nil {
					t.fail("%s op %d: precompute: %v", w.name, n, err)
					continue
				}
				t.rec("planner.precompute_ms", ms(preDur))
			}
			if c, err = tw.viaIndex(o); err != nil {
				t.fail("%s op %d (%s): index: %v", w.name, n, o.kind, err)
				continue
			}
			cDur = time.Since(x0)
		}
		if !a.same(b) || (c != nil && !b.same(c)) {
			t.fail("%s op %d (%s): HTTP, engine and index twins disagree", w.name, n, o.kind)
		}

		client, handle, eng := c1.Sub(c0), h1.Sub(h0), b1.Sub(b0)
		t.span(w.name, n, "client", "", c0, c1)
		t.span(w.name, n, "server.handle", "client", h0, h1)
		t.span(w.name, n, "serve."+o.kind.String(), "server.handle", b0, b1)
		if ran {
			name := below(o.kind) + "." + o.kind.String()
			t.span(w.name, n, name, "serve."+o.kind.String(), x0, x0.Add(cDur))
			if o.kind == opRkNNT {
				st := c.stats[0]
				t.span(w.name, n, "core.filter", name, x0, x0.Add(st.Filter))
				t.span(w.name, n, "core.verify", name, x0.Add(st.Filter), x0.Add(st.Filter+st.Verify))
			}
		}
		sh.Ops++
		sh.ClientMs += ms(client)
		sh.Net += ms(client - handle)
		sh.Server += ms(handle - eng)
		sh.Serve += ms(eng - cDur)
		sh.Below += ms(cDur)
		t.layerSamples(w, o, a, b, c, client, handle, eng, cDur-preDur, respBytes)
		switch {
		case o.kind != opRkNNT:
		case a.repaired:
			flags[1]++
		case a.cached:
			flags[0]++
		default:
			flags[2]++
		}
	}
	if record {
		if sh.ClientMs > 0 {
			sh.Workload = w.name
			sh.Net, sh.Server, sh.Serve, sh.Below = sh.Net/sh.ClientMs, sh.Server/sh.ClientMs, sh.Serve/sh.ClientMs, sh.Below/sh.ClientMs
			t.shares = append(t.shares, sh)
		}
		if n := float64(flags[0] + flags[1] + flags[2]); w.writes && n > 0 {
			t.rec("serve.hit_ratio", float64(flags[0])/n)
			t.rec("serve.repaired_ratio", float64(flags[1])/n)
			t.rec("serve.exec_ratio", float64(flags[2])/n)
		}
	}
	return clientUs
}

// layerSamples files one op's timings under the metrics it feeds.
func (t *tracer) layerSamples(w *workload, o *op, a, b, c *outcome, client, handle, eng, under time.Duration, respBytes int) {
	switch w.name {
	case "read_hot":
		if b.cached && !b.repaired {
			t.rec("net.rtt_self_us", us(client-handle))
			t.rec("server.handle_hit_us", us(handle))
			t.rec("server.self_hit_us", us(handle-eng))
			t.rec("server.resp_bytes_p50", float64(respBytes))
			t.rec("serve.rknnt_hit_us", us(eng))
		}
	case "read_cold":
		if c != nil {
			st := c.stats[0]
			t.rec("server.self_exec_us", us(handle-eng))
			t.rec("serve.rknnt_exec_self_us", us(eng-under))
			t.rec("core.rknnt_us", us(under))
			t.rec("core.filter_us", us(st.Filter))
			t.rec("core.verify_us", us(st.Verify))
			t.rec("core.candidates_per_query", float64(st.Candidates))
			t.rec("core.results_per_query", float64(st.Results))
			t.rec("core.filter_points_per_query", float64(st.FilterPoints))
			t.rec("core.refine_nodes_per_query", float64(st.RefineNodes))
		}
	case "batch_cold":
		if c != nil {
			n := float64(len(o.queries))
			t.rec("serve.batch_self_us_per_query", us(eng-under)/n)
			t.rec("core.batch_us_per_query", us(under)/n)
		}
	case "mixed_stream":
		switch o.kind {
		case opRkNNT:
			if b.repaired {
				t.rec("serve.rknnt_repaired_us", us(eng))
			}
		case opAdd:
			t.rec("server.write_self_us", us(handle-eng))
			t.rec("serve.add_us_per_op", us(eng)/float64(len(o.adds)))
			t.rec("index.add_us_per_op", us(under)/float64(len(o.adds)))
		case opDelete:
			t.rec("server.write_self_us", us(handle-eng))
			t.rec("serve.remove_bulk_us_per_op", us(eng)/float64(len(o.ids)))
			t.rec("index.remove_us_per_op", us(under)/float64(len(o.ids)))
		case opExpire:
			t.rec("serve.expire_us_per_op", us(eng)/float64(o.expect))
			t.rec("index.expire_us_per_op", us(under)/float64(o.expect))
		}
	case "plan_fresh":
		if o.kind == opPlan {
			t.rec("planner.plan_us", us(under))
		}
	}
}

// runTrace is the traced run: every workload's prefix through the twins,
// then the direct timed loops, then the layer table.
func runTrace(cfg *config) (*traceReport, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(cfg.buildDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &tracer{t0: start, samples: make(map[string][]float64)}
	t.rec("loadgen.build_s", cfg.buildS)
	for i := range workloads {
		w := &workloads[i]
		tw, err := newTwins(w, dir)
		if err != nil {
			return nil, err
		}
		if w.name == "read_hot" {
			// Tracing overhead: the same prefix untraced first (it also
			// primes the cache), then traced; compare the hit medians.
			t.replay(w, tw, cfg.seed, false)
			plain := t.replay(w, tw, cfg.seed, false)
			traced := t.replay(w, tw, cfg.seed, true)
			t.rec("loadgen.trace_overhead_pct", (median(traced)-median(plain))/median(plain)*100)
		} else {
			t.replay(w, tw, cfg.seed, true)
		}
		if w.name == "mixed_stream" {
			if err := t.engineLoops(tw, cfg.seed); err != nil {
				tw.close()
				return nil, err
			}
		}
		tw.close()
	}
	if err := t.directLoops(dir, cfg.seed); err != nil {
		return nil, err
	}

	rep := &traceReport{Workload: traceWorkload, Seed: cfg.seed, Host: readHost(cfg.root),
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures, Shares: t.shares}
	for _, d := range perLayer {
		xs := t.samples[d.Name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("traced run produced no sample of %s", d.Name)
		}
		v := median(xs)
		if d.mean {
			v = mean(xs)
		}
		rep.Metrics = append(rep.Metrics, value{d.Name, v, d.Unit, len(xs)})
	}
	if err := writeSpans(filepath.Join(cfg.buildDir, "trace.spans.jsonl"), t.spans); err != nil {
		return nil, err
	}
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *traceReport) print(out io.Writer) {
	fmt.Fprintf(out, "== traced replay  seed %d  (in-process, concurrency 1, %.1fs)\n   %s\n", r.Seed, r.WallS, r.Host.header())
	fmt.Fprintln(out, " where the client span went (self time shares; net+server+serve+below = 1):")
	fmt.Fprintf(out, "  %-13s %6s %11s %7s %7s %7s %7s\n", "workload", "ops", "client_ms", "net", "server", "serve", "below")
	for _, s := range r.Shares {
		fmt.Fprintf(out, "  %-13s %6d %11.2f %7.3f %7.3f %7.3f %7.3f\n", s.Workload, s.Ops, s.ClientMs, s.Net, s.Server, s.Serve, s.Below)
	}
	fmt.Fprintln(out, " per layer:")
	printValues(out, r.Metrics)
	fmt.Fprintf(out, " attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
}
