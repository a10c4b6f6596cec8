package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadReports reads the untraced runs of a JSON-lines report file,
// grouped by workload and metric.
func loadReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" || r.Workload == traceWorkload {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = make(map[string][]float64)
		}
		for _, v := range r.Metrics {
			runs[r.Workload][v.Name] = append(runs[r.Workload][v.Name], v.Value)
		}
	}
	return runs, sc.Err()
}

// verdict judges one metric on one workload: base and change are the
// values of repeated runs of the two sides.
func verdict(def metricDef, base, change []float64) (delta float64, status string) {
	mb, mc := median(base), median(change)
	delta = (mc - mb) / mb // relative to the base median
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	switch {
	// setup_s is exempt from the spread rule: only its medians are compared.
	case def.Name != "setup_s" && (spread(base) > def.Bound || spread(change) > def.Bound):
		return delta, "unresolved"
	case worse > def.Bound:
		return delta, "regressed"
	}
	return delta, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any regressed.
func compareFiles(out io.Writer, basePath, changePath string) (bool, error) {
	base, err := loadReports(basePath)
	if err != nil {
		return false, err
	}
	change, err := loadReports(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(out, "%-13s %-13s %12s %12s %9s %7s %7s %6s  %s\n",
		"workload", "metric", "base", "change", "delta", "spr.b", "spr.c", "bound", "status")
	for i := range workloads {
		w := workloads[i].name
		for _, def := range endToEnd {
			b, c := base[w][def.Name], change[w][def.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			delta, status := verdict(def, b, c)
			regressed = regressed || status == "regressed"
			fmt.Fprintf(out, "%-13s %-13s %12.4f %12.4f %+8.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (of base %.4f %s, n=%d/%d)\n",
				w, def.Name, median(b), median(c), delta*100, spread(b)*100, spread(c)*100, def.Bound*100,
				status, median(b), def.Unit, len(b), len(c))
		}
	}
	return regressed, nil
}
