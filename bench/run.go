package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/serve"
)

// config is what the command line fixes for a run.
type config struct {
	root     string // repository checkout
	buildDir string // <root>/.bench_build
	bin      string // rknnt-serve, built once per process
	seed     int64
	seconds  float64
	buildS   float64
}

// value is one reported number.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind it
}

// runResult is one workload's untraced run.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Host      hostInfo `json:"host"`
	Shards    int      `json:"shards"`
	Valid     bool     `json:"valid"`
	Invalid   []string `json:"invalid,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []value  `json:"metrics"` // the end-to-end metrics of BENCHMARK.json
	Detail    []value  `json:"detail"`  // per-endpoint numbers under the issue's names
}

// writeData indexes the city, writes the file the server boots from into
// dir and returns the server's data-source flags.
func writeData(w *workload, city *gen.City, dir string) ([]string, error) {
	if w.planner {
		path := filepath.Join(dir, "city.snapshot")
		_, err := dataio.WriteFileAtomic(path, func(f io.Writer) error {
			return dataio.WriteSnapshot(f, city.Dataset, city.Graph)
		})
		return []string{"-snapshot", path}, err
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		return nil, err
	}
	e := serve.New(x, serve.Options{})
	defer e.Close()
	path := filepath.Join(dir, "city.arena")
	_, err = e.WriteSnapshotFile(path)
	return []string{"-index", path, "-mmap"}, err
}

// perConn runs fn once per connection, concurrently, and waits.
func perConn(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// run is the state of one workload's untraced run.
type run struct {
	cfg          *config
	w            *workload
	res          *runResult
	dir          string
	snapshotPath string
	conns        []*client
	city         *gen.City
	srv          *server
	dataArgs     []string
	m            measured
}

// runWorkload measures one workload end to end against a freshly booted
// server subprocess.
func runWorkload(cfg *config, w *workload) (*runResult, error) {
	r := &run{cfg: cfg, w: w, conns: []*client{newClient(), newClient()}}
	r.res = &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Host: readHost(cfg.root), Valid: true}
	if h := r.res.Host; h.Load1 > 2*float64(h.NProc) {
		r.res.invalid("1-min load average %.2f at start is more than a series of runs leaves behind on %d CPUs", h.Load1, h.NProc)
	}
	var err error
	if r.dir, err = os.MkdirTemp(cfg.buildDir, "run-"+w.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	r.snapshotPath = filepath.Join(r.dir, "city.arena")
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
		r.conns[0].close()
		r.conns[1].close()
	}()

	if err := r.setUp(); err != nil {
		return nil, err
	}
	// The load is part of the benchmark: if the generators no longer
	// produce the pinned requests, every number measures something else.
	r.res.Attempted++
	if got := streamHash(w, r.city, 1, w.pinnedOps()); got != pinnedStreams[w.name] {
		r.res.Failed++
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("load changed: seed-1 stream hashes to %s, pinned %s", got, pinnedStreams[w.name]))
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.res.summarise(w, cfg, &r.m)
	for _, v := range r.res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("no samples behind %s", v.Name)
		}
	}
	return r.res, nil
}

// setUp generates the city, writes the server's data file and boots the
// server, setupReps times over; the last server stays up. Workloads that
// read a fixed route table then prime it, so their window sees no cold
// miss.
func (r *run) setUp() error {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if r.srv != nil {
			r.srv.kill()
			r.srv = nil
		}
		t0 := time.Now()
		var err error
		if r.city, err = gen.Generate(r.w.cityConfig()); err != nil {
			return err
		}
		if r.dataArgs, err = writeData(r.w, r.city, r.dir); err != nil {
			return err
		}
		if r.srv, err = startServer(r.cfg.bin, r.conns[0], r.dataArgs...); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.m.setupS = median(setups)
	if r.w.primed {
		t0 := time.Now()
		table := coldQueries(r.city, subRand(r.cfg.seed, 1), hotRoutes)
		var prime [2]connResult
		perConn(2, func(i int) {
			var ops []op
			for j := i; j < len(table); j += 2 {
				ops = append(ops, op{kind: opRkNNT, queries: table[j : j+1]})
			}
			l := loop{addr: r.srv.addr}
			l.run(r.conns[i], fromSlice(ops), &prime[i])
		})
		if n := prime[0].failed + prime[1].failed; n > 0 {
			return fmt.Errorf("priming failed on %d requests: %v", n, append(prime[0].failures, prime[1].failures...))
		}
		r.m.setupS += time.Since(t0).Seconds()
	}
	health, err := r.conns[0].healthz(r.srv.addr)
	r.res.Shards = len(health.EpochVector.Shards)
	return err
}

// measure runs warm-up and the measured window as one uninterrupted
// stream.
func (r *run) measure() error {
	w, m, srv := r.w, &r.m, r.srv
	streams := newStreams(w, r.city, r.cfg.seed)
	start := time.Now()
	l := loop{addr: srv.addr, snapshotPath: r.snapshotPath, start: start,
		measureFrom: start.Add(time.Duration(warmupSeconds * float64(time.Second)))}
	l.end = l.measureFrom.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	m.out = make([]connResult, w.conns)
	stopRSS := make(chan struct{})
	rssCh := make(chan []float64, 1)
	go func() {
		sleepUntil(l.measureFrom)
		rssCh <- srv.sampleRSS(rssInterval, stopRSS)
	}()
	atStart := make(chan cpuMark, 1)
	go func() {
		sleepUntil(l.measureFrom)
		atStart <- markCPU(srv)
	}()
	perConn(w.conns, func(i int) {
		li := l
		if !w.writes {
			m.out[i].sampleEvery = checkEvery // beside a writer answers race the writes; the quiesced check covers them
		} else if i == w.conns-1 {
			li.period = time.Second / (2 * mixedTickRate)
		}
		li.run(r.conns[i], endless(streams[i]), &m.out[i])
	})
	m.cpu = markCPU(srv).since(<-atStart)
	close(stopRSS)
	m.rss = <-rssCh
	var err error
	if m.peakMB, err = srv.rssMB("VmHWM"); err != nil {
		return err
	}

	return nil
}

// verify checks, with the clock stopped, the answers kept during the run,
// the quiescent server against the model of acknowledged writes and, for
// a workload with a writer, a warm boot from the chain after SIGKILL.
func (r *run) verify() error {
	w, m, res, c := r.w, &r.m, r.res, r.conns[0]
	bulk := r.city.Dataset.Transitions
	v := newVerifier(r.city, r.cfg.seed)
	live := newLiveSet(bulk)
	for i := range m.out {
		for j := range m.out[i].sampled {
			v.answer(&m.out[i].sampled[j], live, i == 0 && j < fullScans)
		}
	}
	writeLog := m.out[w.conns-1].log
	final, atCheckpoint := v.replay(bulk, writeLog)
	table := coldQueries(r.city, subRand(r.cfg.seed, 1), hotRoutes)
	check := func(n int, live *liveSet, what string) {
		if h, err := c.healthz(r.srv.addr); err != nil || h.Transitions != len(live.byID) {
			v.attempted++
			v.fail("%s: server holds %d transitions (%v), model %d", what, h.Transitions, err, len(live.byID))
		}
		if w.planner {
			return
		}
		var ops []op
		for i := 0; i < n; i++ {
			ops = append(ops, op{kind: opRkNNT, queries: table[i : i+1]})
		}
		cr := connResult{sampleEvery: 1}
		ql := loop{addr: r.srv.addr}
		ql.run(c, fromSlice(ops), &cr)
		res.absorb(&cr)
		for j := range cr.sampled {
			v.answer(&cr.sampled[j], live, j < fullScans && w.writes)
		}
	}
	check(16, final, "quiesced")

	// Restart check: checkpoint, one more acknowledged add that the
	// checkpoint does not cover, SIGKILL, warm boot from the chain.
	if w.writes {
		uncovered := op{kind: opAdd}
		rng := subRand(r.cfg.seed, 13)
		for j := 0; j < tickAdds; j++ {
			uncovered.adds = append(uncovered.adds, arrival(r.city.Dataset, rng, int32(extraIDBase+j), 0))
		}
		var cr connResult
		rl := loop{addr: r.srv.addr, snapshotPath: r.snapshotPath}
		rl.run(c, fromSlice([]op{{kind: opSnapshot}, uncovered}), &cr)
		res.absorb(&cr)
		if cr.failed == 0 {
			atCheckpoint = final // the checkpoint just taken covers every write of the stream
		}
		if atCheckpoint == nil {
			return fmt.Errorf("no checkpoint succeeded, nothing to restart from: %v", cr.failures)
		}
		r.srv.kill()
		t0 := time.Now()
		var err error
		if r.srv, err = startServer(r.cfg.bin, c, r.dataArgs...); err != nil {
			return fmt.Errorf("warm boot after SIGKILL: %w", err)
		}
		m.bootMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		check(8, atCheckpoint, "after restart")
		v.restart(c, r.srv.addr, writeLog, atCheckpoint)
	}

	for i := range m.out {
		res.absorb(&m.out[i])
	}
	m.ties = v.ties
	res.Attempted += v.attempted
	res.Failed += v.failed
	res.Failures = append(res.Failures, v.failures...)
	return nil
}

func (r *runResult) invalid(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *runResult) absorb(c *connResult) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	r.Failures = append(r.Failures, c.failures...)
}

// cpuMark is the CPU time the load generator and the server had used
// at one instant, in seconds.
type cpuMark struct{ self, server float64 }

func markCPU(srv *server) cpuMark {
	sc, _ := srv.cpuSeconds() // a failed read shows as an absurd per-op figure in the report, not as a wrong answer
	return cpuMark{selfCPUSeconds(), sc}
}

func (m cpuMark) since(earlier cpuMark) cpuMark {
	return cpuMark{m.self - earlier.self, m.server - earlier.server}
}

// measured is what one run observed, before it is turned into numbers.
type measured struct {
	out    []connResult
	setupS float64
	rss    []float64 // MB, sampled every rssInterval of the window
	peakMB float64
	bootMs float64 // warm boot of the restart check
	ties   int     // checked memberships a distance tie decides (oracle.Tie): either answer passed
	cpu    cpuMark // CPU used during the measured window: a diagnostic, no metric is scaled by it
}

// summarise turns the samples into the reported numbers. Everything is
// wall-clock time over the whole measured window: a stall anywhere in the
// run shows in the throughput and in the tail.
func (r *runResult) summarise(w *workload, cfg *config, m *measured) {
	var (
		all                                  []sample
		hits, repaired, flagged, slots, late int
		opsPerS                              float64
		done                                 int
	)
	for i := range m.out {
		c := &m.out[i]
		all = append(all, c.samples...)
		hits += c.hits
		repaired += c.repaired
		flagged += c.flagged
		slots += c.slots
		late += c.late
		// Read ops completed per second of the connection's own measured
		// span, first request due to last response read, so no request is
		// cut at a window edge; connections add up.
		units := 0
		for _, s := range c.samples {
			units += s.units
		}
		if n := len(c.samples); units > 0 {
			opsPerS += float64(units) / (float64(c.samples[n-1].done-c.samples[0].due) / 1e9)
			done += units
		}
	}
	latencies := func(keep func(*sample) bool) []float64 {
		var xs []float64
		for i := range all {
			if keep(&all[i]) {
				xs = append(xs, float64(all[i].done-all[i].due)/1e6)
			}
		}
		return xs
	}
	kinds := func(ks ...opKind) func(*sample) bool {
		return func(s *sample) bool { return slices.Contains(ks, s.kind) }
	}
	reads := latencies(kinds(opRkNNT, opBatch, opPlan))
	writes := latencies(kinds(opAdd, opDelete))
	timed := reads // the request p50_ms and tail_ms describe
	if w.writes {
		timed = writes
	}
	r.Metrics = []value{
		{"setup_s", m.setupS, "s", setupReps},
		{"ops_per_s", opsPerS, "1/s", done},
		{"p50_ms", median(timed), "ms", len(timed)},
		{"tail_ms", percentile(timed, w.tailPct), "ms", len(timed)},
		{"rss_mb", median(m.rss), "MB", len(m.rss)},
	}

	add := func(name string, v float64, unit string, n int) {
		r.Detail = append(r.Detail, value{name, v, unit, n})
	}
	p50 := func(name string, xs []float64) { add(name, median(xs), "ms", len(xs)) }
	// The highest percentile is reported only where at least ten samples
	// lie beyond it.
	p99 := func(name string, xs []float64) {
		if beyond(len(xs), 99) >= 10 {
			add(name, percentile(xs, 99), "ms", len(xs))
		}
	}
	switch w.name {
	case "read_cold", "read_hot":
		add("rknnt_qps", opsPerS, "queries/s", done)
		p50("rknnt_p50_ms", reads)
		p99("rknnt_p99_ms", reads)
	case "batch_cold":
		add("batch_qps", opsPerS, "queries/s", done)
		p50("batch_p50_ms", reads)
	case "mixed_stream":
		add("rknnt_qps", opsPerS, "queries/s", done)
		p50("rknnt_p50_ms", reads)
		add("rknnt_p95_ms", percentile(reads, 95), "ms", len(reads))
		p99("rknnt_p99_ms", reads)
		p50("write_p50_ms", writes)
		p99("write_p99_ms", writes)
		p50("expire_p50_ms", latencies(kinds(opExpire)))
		p50("checkpoint_p50_ms", latencies(kinds(opSnapshot)))
		add("restart_boot_ms", m.bootMs, "ms", 1)
		lateRatio := float64(late) / float64(slots)
		add("loadgen.late_ratio", lateRatio, "ratio", slots)
		if lateRatio > maxLateRatio {
			r.invalid("open-loop writer sent %.1f%% of requests more than 1 ms late", lateRatio*100)
		}
	case "plan_fresh":
		p50("plan_fresh_p50_ms", latencies(func(s *sample) bool { return s.kind == opPlan && s.fresh }))
		p50("plan_warm_p50_ms", latencies(func(s *sample) bool { return s.kind == opPlan && !s.fresh }))
		p50("write_p50_ms", writes)
	}
	if flagged > 0 {
		add("serve.hit_ratio", float64(hits)/float64(flagged), "ratio", flagged)
		add("serve.repaired_ratio", float64(repaired)/float64(flagged), "ratio", flagged)
		add("serve.exec_ratio", float64(flagged-hits-repaired)/float64(flagged), "ratio", flagged)
	}
	// The ladder tail_ms was picked from (README.md, "Bounds").
	for _, p := range []float64{75, 80, 90, 95, 99} {
		add(fmt.Sprintf("timed_p%g_ms", p), percentile(timed, p), "ms", len(timed))
	}
	add("timed_mean_ms", mean(timed), "ms", len(timed))
	add("loadgen.cpu_ms_per_req", m.cpu.self*1e3/float64(len(all)), "ms", len(all))
	add("server.cpu_ms_per_op", m.cpu.server*1e3/float64(done), "ms", done)
	add("rss_peak_mb", m.peakMB, "MB", 1)
	add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "failed/attempted", r.Attempted)
	add("oracle.ties", float64(m.ties), "count", 1)
	add("loadgen.build_s", cfg.buildS, "s", 1)
}

// contractLine is the JSON object the driver reads from the last line.
func contractLine(attempted, failed int, metrics []value) string {
	m := make(map[string]map[string]any, len(metrics))
	for _, v := range metrics {
		m[v.Name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": m,
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}
