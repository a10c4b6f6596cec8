package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/bench/oracle"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/index"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

func cityOf(t *testing.T, w *workload) *gen.City {
	t.Helper()
	city, err := gen.Generate(w.cityConfig())
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestStreamsAreDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		n := w.pinnedOps()
		city := cityOf(t, w)
		h1 := streamHash(w, city, 1, n)
		if again := streamHash(w, cityOf(t, w), 1, n); again != h1 {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if other := streamHash(w, city, 2, n); other == h1 {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		if h1 != pinnedStreams[w.name] {
			t.Errorf("%s: stream for seed 1 hashes to %s, pinned %s", w.name, h1, pinnedStreams[w.name])
		}
	}
}

func TestMixedStreamIsStationary(t *testing.T) {
	w, _ := workloadByName("mixed_stream")
	city := cityOf(t, w)
	live := newLiveSet(city.Dataset.Transitions)
	want := len(live.byID)
	seen := make(map[int32]bool)
	s := tickStream(city.Dataset, subRand(1, 11))
	for i := 0; i < 4*snapshotEvery*2; i++ {
		o := s()
		for _, id := range o.ids {
			if seen[id] {
				t.Fatalf("ID %d removed twice", id)
			}
			seen[id] = true
		}
		for _, tr := range o.adds {
			if seen[tr.ID] {
				t.Fatalf("ID %d re-added after removal", tr.ID)
			}
		}
		before := len(live.byID)
		live.apply(&logEntry{op: o, acked: true})
		if o.kind == opExpire && before-len(live.byID) != o.expect {
			t.Fatalf("expiry before %d dropped %d, stream says %d", o.cutoff, before-len(live.byID), o.expect)
		}
		if d := len(live.byID) - want; d < 0 || d > expireEvery*(tickAdds-tickDeletes)+tickAdds {
			t.Fatalf("live set drifted by %d after %d ops", d, i+1)
		}
	}
}

func TestOracleAgreesWithBruteForce(t *testing.T) {
	city, err := gen.Generate(gen.Config{
		Seed: 7, Width: 12, Height: 12, GridStep: 1.5, Jitter: 0.2,
		NumRoutes: 25, RouteMinStops: 3, RouteMaxStops: 8,
		NumTransitions: 200, HotspotCount: 4, HotspotSigma: 1.5, BackgroundFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	routes := make([][]geo.Point, len(city.Dataset.Routes))
	for i := range routes {
		routes[i] = city.Dataset.Routes[i].Pts
	}
	orc := oracle.New(routes)
	rng := subRand(3, 0)
	for q := 0; q < 40; q++ {
		query := city.Query(rng, 1+q%5, 2)
		for _, k := range []int{1, 3, 10} {
			want, _, err := core.RkNNT(x, query, core.Options{K: k, Method: core.BruteForce})
			if err != nil {
				t.Fatal(err)
			}
			// Where no tie decides, the oracle is BruteForce; where one
			// does, BruteForce is one of the answers it accepts.
			var yes, either []int32
			for _, tr := range city.Dataset.Transitions {
				switch orc.Matches(tr.O, tr.D, query, k) {
				case oracle.Yes:
					yes = append(yes, tr.ID)
					either = append(either, tr.ID)
				case oracle.Tie:
					either = append(either, tr.ID)
				}
			}
			for _, id := range yes {
				if !slices.Contains(want, id) {
					t.Fatalf("query %d k=%d: oracle says yes to %d, core.BruteForce %v", q, k, id, want)
				}
			}
			for _, id := range want {
				if !slices.Contains(either, id) {
					t.Fatalf("query %d k=%d: core.BruteForce returns %d, oracle says no", q, k, id)
				}
			}

		}
	}
}

// A route through the very stop the query passes is as far from any
// point as the query: the oracle must call that a tie, not decide it.
func TestOracleTies(t *testing.T) {
	shared := geo.Pt(3, 4)
	orc := oracle.New([][]geo.Point{{shared, geo.Pt(9, 9)}, {geo.Pt(1, 0)}})
	query := []geo.Point{shared, geo.Pt(20, 20)}
	for _, c := range []struct {
		k    int
		want oracle.Verdict
	}{{1, oracle.No}, {2, oracle.Tie}, {3, oracle.Yes}} {
		if got := orc.Takes(geo.Pt(0, 0), query, c.k); got != c.want {
			t.Errorf("k=%d: verdict %d, want %d", c.k, got, c.want)
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6}); q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %g, %g, want 1.25, 5.75", q1, q3)
	}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
	if beyond(1900, 99) != 19 || beyond(60, 80) != 12 {
		t.Errorf("beyond: %d, %d", beyond(1900, 99), beyond(60, 80))
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	setup := metricDef{"setup_s", "s", "lower", 0.25}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	for _, c := range []struct {
		def          metricDef
		base, change []float64
		delta        float64
		status       string
	}{
		{lower, steady(10), steady(10.5), 0.05, "ok"},
		{lower, steady(10), steady(11.5), 0.15, "regressed"},
		{lower, steady(10), steady(5), -0.5, "ok"},
		{higher, steady(100), steady(85), -0.15, "regressed"},
		{higher, steady(100), steady(130), 0.30, "ok"},
		{lower, []float64{8, 9, 10, 11, 12}, steady(20), 1, "unresolved"},
		{setup, []float64{8, 9, 10, 11, 12}, steady(12), 0.2, "ok"},
		{setup, []float64{8, 9, 10, 11, 12}, steady(13), 0.3, "regressed"},
	} {
		delta, status := verdict(c.def, c.base, c.change)
		if math.Abs(delta-c.delta) > 1e-9 || status != c.status {
			t.Errorf("%s %v -> %v: got %+.3f %s, want %+.3f %s", c.def.Name, c.base, c.change, delta, status, c.delta, c.status)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := dir + "/" + name
		for i := 0; i < 5; i++ {
			r := runResult{Workload: "read_cold", Metrics: []value{{"p50_ms", p50 * (1 + float64(i)/1000), "ms", 100}}}
			if err := appendReport(path, &r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a", 8), write("same", 8.1), write("slow", 11)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, same); err != nil || regressed {
		t.Errorf("same: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, slow); err != nil || !regressed {
		t.Errorf("slow: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "read_cold") {
		t.Errorf("row missing:\n%s", out.String())
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []layerDef  `json:"per_layer"`
}

func tablesAsJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json, the tables in this package and
// the names the command prints in step.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(tablesAsJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in bench/; run `go test -run TestBenchmarkJSON -update` in bench/")
	}

	// The names the command prints: summarise fills Metrics for every
	// workload, and the traced run refuses to finish without a sample of
	// every per-layer metric, so checking summarise covers both.
	for i := range workloads {
		w := &workloads[i]
		r := &runResult{Attempted: 1}
		r.summarise(w, &config{seconds: 1}, &measured{out: make([]connResult, w.conns)})
		var names []string
		for _, v := range r.Metrics {
			names = append(names, v.Name)
		}
		var defs []string
		for _, d := range endToEnd {
			defs = append(defs, d.Name)
		}
		if !slices.Equal(names, defs) {
			t.Errorf("%s prints %v, BENCHMARK.json lists %v", w.name, names, defs)
		}
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(contractLine(3, 0, []value{{"p50_ms", 1.5, "ms", 9}})), &line); err != nil || !line.Correct || line.Attempted != 3 || len(line.Metrics) != 1 {
			t.Errorf("contract line: %+v, %v", line, err)
		}
	}
}
