// Command rknnt-bench regenerates the tables and figures of the paper's
// evaluation section on the synthetic stand-in datasets.
//
// Usage:
//
//	rknnt-bench                 # run every experiment in paper order
//	rknnt-bench -exp fig9       # run one experiment
//	rknnt-bench -list           # list experiment IDs
//	rknnt-bench -json           # machine-readable output (perf trajectory)
//	rknnt-bench -scale 1 -queries 100   # full-cardinality datasets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
)

// jsonReport is the -json output: the configuration the experiments ran
// under plus every regenerated table with its wall-clock cost. Committed
// as BENCH_baseline.json, it gives later PRs a perf trajectory to diff
// against.
type jsonReport struct {
	Scale          int          `json:"scale"`
	Queries        int          `json:"queries"`
	SynTransitions int          `json:"syn_transitions"`
	Seed           int64        `json:"seed"`
	ShardSweep     []int        `json:"shard_sweep,omitempty"`
	GoMaxProcs     int          `json:"gomaxprocs"`
	NumCPU         int          `json:"num_cpu"`
	GoVersion      string       `json:"go_version"`
	Experiments    []jsonResult `json:"experiments"`
}

type jsonResult struct {
	Table   *exp.Table `json:"table"`
	Seconds float64    `json:"seconds"`
}

func main() {
	cfg := exp.DefaultConfig()
	expID := flag.String("exp", "", "experiment ID to run (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of formatted tables")
	flag.IntVar(&cfg.Scale, "scale", cfg.Scale, "divide the paper's dataset cardinalities by this factor (1 = full scale)")
	flag.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries averaged per data point")
	flag.IntVar(&cfg.SynTransitions, "syn", cfg.SynTransitions, "NYC-Synthetic transition count (paper: 10000000)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "query sampling seed")
	shards := flag.String("shards", "", "comma-separated TR-shard counts for the shardscale sweep (default 1,2,4,8)")
	flag.Parse()

	if *shards != "" {
		sweep, err := parseShards(*shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rknnt-bench: %v\n", err)
			os.Exit(1)
		}
		cfg.ShardSweep = sweep
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	suite := exp.NewSuite(cfg)
	ids := exp.IDs()
	if *expID != "" {
		ids = []string{*expID}
	}
	report := jsonReport{
		Scale:          cfg.Scale,
		Queries:        cfg.Queries,
		SynTransitions: cfg.SynTransitions,
		Seed:           cfg.Seed,
		ShardSweep:     cfg.ShardSweep,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GoVersion:      runtime.Version(),
	}
	for _, id := range ids {
		start := time.Now()
		table, err := suite.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rknnt-bench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *asJSON {
			report.Experiments = append(report.Experiments, jsonResult{
				Table:   table,
				Seconds: elapsed.Seconds(),
			})
			continue
		}
		fmt.Print(table.Format())
		fmt.Printf("(%s in %v)\n\n", id, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "rknnt-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseShards parses a comma-separated shard-count list, e.g. "1,2,4,8".
func parseShards(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards value %q (want a comma-separated list of positive shard counts)", s)
		}
		out = append(out, n)
	}
	return out, nil
}
