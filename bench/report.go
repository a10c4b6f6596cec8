package main

import (
	"fmt"
	"io"
	"strings"
)

func (h *hostInfo) header() string {
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  kernel %s  load1 %.2f  commit %s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Load1, h.Commit)
}

func printValues(out io.Writer, vs []value) {
	for _, v := range vs {
		fmt.Fprintf(out, "  %-36s %14.4f %-16s n=%d\n", v.Name, v.Value, v.Unit, v.N)
	}
}

// print writes the human-readable report of one untraced run.
func (r *runResult) print(out io.Writer, w *workload) {
	loopKind, timed := "closed", "read request"
	if w.writes {
		loopKind, timed = "closed reader + open writer", "write request from its due time"
	}
	fmt.Fprintf(out, "== %s  seed %d  %gs measured after %gs warm-up  (%s loop, %d conn, ops = %s, p50/tail = %s, tail = p%g)\n",
		r.Workload, r.Seed, r.Seconds, warmupSeconds, loopKind, w.conns, w.unit, timed, w.tailPct)
	fmt.Fprintf(out, "   %s  shards %d\n", r.Host.header(), r.Shards)
	fmt.Fprintln(out, " end to end:")
	printValues(out, r.Metrics)
	fmt.Fprintln(out, " by endpoint:")
	printValues(out, r.Detail)
	fmt.Fprintf(out, " attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	if r.Valid {
		fmt.Fprintln(out, " valid: yes")
	} else {
		fmt.Fprintf(out, " valid: NO (%s)\n", strings.Join(r.Invalid, "; "))
	}
}
