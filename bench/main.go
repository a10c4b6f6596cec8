// Command bench is the wire-level RkNNT serving benchmark: it builds the
// shipped cmd/rknnt-serve, boots it as a subprocess on a seeded city,
// drives it over loopback from this one process, checks the answers
// against its own oracle and prints every metric by name. See README.md.
//
//	bash bench/run.sh --workload read_cold --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload read_cold --trace 1      # per-layer table
//	bash bench/run.sh --out a.jsonl                       # all five workloads
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const defaultSeconds = 12 // run_seconds of BENCHMARK.json

func main() {
	root := flag.String("root", "..", "repository checkout to build the server from")
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every request stream, the route table and the oracle's samples")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1: in-process traced replay printing the per-layer table instead of the end-to-end run")
	out := flag.String("out", "", "append each run's report to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two report files given as arguments; exit 1 on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}

	abs, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	cfg := &config{root: abs, buildDir: filepath.Join(abs, ".bench_build"), seed: *seed, seconds: *seconds}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fatal(err)
	}
	bin, took, err := buildServer(cfg.root, cfg.buildDir)
	if err != nil {
		fatal(err)
	}
	cfg.bin, cfg.buildS = bin, took.Seconds()

	if *trace != 0 {
		// The layer table covers every workload's stream in one replay,
		// so it is the same whichever workload the caller names.
		rep, err := runTrace(cfg)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout)
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
		fmt.Println(contractLine(rep.Attempted, rep.Failed, rep.Metrics))
		return
	}

	for _, w := range selected {
		res, err := runWorkload(cfg, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.print(os.Stdout, w)
		if err := appendReport(*out, res); err != nil {
			fatal(err)
		}
		fmt.Println(contractLine(res.Attempted, res.Failed, res.Metrics))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// appendReport appends one JSON line to path ("" = nowhere).
func appendReport(path string, v any) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
