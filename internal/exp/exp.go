// Package exp is the experiment harness: one driver per table and figure
// of the paper's evaluation (Section 7). Each driver regenerates the rows
// or series the paper reports, on the synthetic stand-in datasets, and
// returns them as a formatted Table. The cmd/rknnt-bench binary and the
// top-level benchmarks are thin wrappers around this package.
package exp

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID     string // e.g. "fig9"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // scaling caveats, expected shape, observations
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config controls experiment scale. Defaults keep the full suite under a
// few minutes on one core; Scale=1 restores the paper's cardinalities.
type Config struct {
	// Scale divides the paper's dataset cardinalities (Tables 2 and 3).
	Scale int
	// Queries is the number of queries averaged per data point (the
	// paper uses 1,000; large values are slow at small Scale gains).
	Queries int
	// SynTransitions is the NYC-Synthetic transition count (paper: 10M).
	SynTransitions int
	// Seed drives query sampling.
	Seed int64
	// ShardSweep is the TR-shard counts the shardscale experiment
	// sweeps over (rknnt-bench -shards). Empty means 1,2,4,8.
	ShardSweep []int
}

// DefaultConfig returns the laptop-friendly defaults.
func DefaultConfig() Config {
	return Config{Scale: 4, Queries: 6, SynTransitions: 200000, Seed: 42}
}

// Default parameter values, matching the underlined entries of Table 4.
const (
	DefaultK        = 10
	DefaultQLen     = 5
	DefaultInterval = 3.0 // km
)

// Sweeps from Table 4.
var (
	SweepK        = []int{1, 5, 10, 15, 20, 25}
	SweepQLen     = []int{3, 4, 5, 6, 7, 8, 9, 10}
	SweepInterval = []float64{1, 2, 3, 4, 5, 6}
	SweepTauRatio = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
)

// Registry of experiment IDs in paper order.
var order = []string{
	"table2", "table3", "fig6", "fig8", "fig17",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"table5", "fig18", "fig19", "fig20", "fig21",
	"ablation", "coldstart", "shardscale",
}

// IDs returns all experiment IDs in paper order.
func IDs() []string { return append([]string(nil), order...) }

// Run executes one experiment by ID.
func (s *Suite) Run(id string) (*Table, error) {
	fn, ok := s.registry()[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
	}
	return fn()
}

// RunAll executes every experiment in paper order.
func (s *Suite) RunAll() ([]*Table, error) {
	var out []*Table
	for _, id := range order {
		t, err := s.Run(id)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func (s *Suite) registry() map[string]func() (*Table, error) {
	return map[string]func() (*Table, error){
		"table2":     s.Table2,
		"table3":     s.Table3,
		"fig6":       s.Fig6,
		"fig8":       s.Fig8,
		"fig9":       s.Fig9,
		"fig10":      s.Fig10,
		"fig11":      s.Fig11,
		"fig12":      s.Fig12,
		"fig13":      s.Fig13,
		"fig14":      s.Fig14,
		"fig15":      s.Fig15,
		"fig16":      s.Fig16,
		"fig17":      s.Fig17,
		"table5":     s.Table5,
		"fig18":      s.Fig18,
		"fig19":      s.Fig19,
		"fig20":      s.Fig20,
		"fig21":      s.Fig21,
		"ablation":   s.Ablation,
		"coldstart":  s.ColdStart,
		"shardscale": s.ShardScale,
	}
}
