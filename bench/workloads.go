package main

import (
	"fmt"
	"time"

	"repro/internal/gen"
)

// Load parameters. They are constants, never calibrated at run time, so
// a parent commit and a change always receive the same load.
const (
	queryPoints   = 5   // |Q|
	queryInterval = 3.0 // km between query points
	queryK        = 10

	hotRoutes = 256 // route table of read_hot and mixed_stream: fits the server's 4096-entry cache
	zipfS     = 1.1

	batchQueries = 32 // queries per /v1/rknnt/batch request

	mixedTickRate = 20  // open-loop write ticks per second (one add + one delete request each)
	traceQueryMix = 5   // queries between two write requests in the traced replay of mixed_stream
	tickAdds      = 16  // timed arrivals per tick
	tickDeletes   = 8   // oldest bulk-loaded IDs removed per tick
	expireEvery   = 10  // every 10th tick expires ...
	expireTicks   = 5   // ... the arrivals of the 5 oldest ticks still live (80 transitions)
	snapshotEvery = 100 // every 100th tick takes an incremental checkpoint

	planAdds      = 8 // transitions added before each planning cycle
	plansPerCycle = 8 // the first plan after the write is fresh, the rest are warm
	planMinKm     = 6.0
	planMaxKm     = 12.0
	planTauRatio  = 1.4

	dynamicIDBase = 1_000_000 // IDs of transitions a stream adds; bulk IDs are 1..n
	extraIDBase   = 2_000_000 // IDs of transitions added outside the streams: the restart check's uncovered add, the direct loops

	maxLateRatio  = 0.03 // an open-loop run that sent more of its requests >1 ms late is invalid, not slow
	warmupSeconds = 2.0
	setupReps     = 5                      // set-ups per run; setup_s is their median
	rssInterval   = 100 * time.Millisecond // the garbage collector's sawtooth is a few hundred ms long; rss_mb is the median sample
	checkEvery    = 50                     // every 50th RkNNT answer goes to the oracle
	checkSample   = 2000
	fullScans     = 3
)

// workload is one traffic mix. The table below is the single source of
// the names BENCHMARK.json lists.
type workload struct {
	name    string
	why     string
	conns   int     // connections carrying the stream
	writes  bool    // the last connection carries an open-loop write schedule, timed from each request's due time
	tailPct float64 // percentile reported as tail_ms: the highest with >=10 samples beyond it that repeats within the bound
	planner bool    // compact planner city booted with -snapshot instead of the NYC-like arena
	primed  bool    // reads draw from the hot route table, which set-up primes
	unit    string  // what ops_per_s counts
}

var workloads = []workload{
	{
		name:  "read_cold",
		why:   "never-repeating RkNNT queries: core/rtree/geo do the work, the cache never hits",
		conns: 2, tailPct: 95, unit: "queries",
	},
	{
		name:  "read_hot",
		why:   "Zipf over 256 primed routes: server codec, cache, flight and net do the work, core none",
		conns: 2, primed: true, tailPct: 95, unit: "queries",
	},
	{
		name:  "batch_cold",
		why:   "32 never-repeating queries per batch request: the same core through the batch path",
		conns: 2, tailPct: 80, unit: "queries",
	},
	{
		name:  "mixed_stream",
		why:   "Zipf reads beside an open-loop writer at 20 ticks/s with expiry and checkpoints: repair, shard commits, chain",
		conns: 2, primed: true, writes: true, tailPct: 90, unit: "queries",
	},
	{
		name:  "plan_fresh",
		why:   "write then eight MaxRkNNT plans on the compact city: the first pays Precompute, the rest are warm",
		conns: 1, tailPct: 93.75, planner: true, unit: "plans",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cityConfig returns the generator configuration of the workload's city.
// The city is the benchmark's fixed dataset, as NYC and LA are the
// paper's: the seed moves every request, not the street map, because
// query cost differs by a tenth between generated cities and that
// difference would drown the run-to-run spread the bounds are set from.
func (w *workload) cityConfig() gen.Config {
	if w.planner {
		// exp.Suite.Planner's compact city at 10 000 transitions: a
		// network small enough that Precompute costs a fraction of a second.
		return gen.Config{
			Seed:  4004,
			Width: 20, Height: 20,
			GridStep:       2.0,
			Jitter:         0.25,
			NumRoutes:      60,
			RouteMinStops:  4,
			RouteMaxStops:  10,
			NumTransitions: 10000,
			HotspotCount:   15,
			HotspotSigma:   1.5,
			BackgroundFrac: 0.15,
		}
	}
	return gen.NYC(4) // 505 routes / 48 958 transitions
}

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the server sees; every workload reports
// every one. README.md says what each is on each workload and maps them to
// the per-endpoint names of the issue. Bounds follow the measured spreads
// (README.md, "This host, and the bounds"): the timings move with the
// host by up to the contract's ceiling, the resident set does not.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
}
