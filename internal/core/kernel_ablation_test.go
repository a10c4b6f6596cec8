package core

import (
	"testing"
	"testing/quick"
)

// TestQuickKernelAblationExact is the blocked-traversal property test:
// on randomized workloads (degenerate geometry included), every method
// returns identical results with the planar kernels enabled and with the
// NoKernel scalar path — including with parallelism on, which may only
// split the verify pass across workers, never change the answer.
func TestQuickKernelAblationExact(t *testing.T) {
	check := func(w workloadCase) bool {
		for _, m := range []Method{FilterRefine, Voronoi, DivideConquer} {
			want, _, err := RkNNT(w.x, w.query, Options{K: w.k, Method: m, NoKernel: true})
			if err != nil {
				t.Log(err)
				return false
			}
			got, _, err := RkNNT(w.x, w.query, Options{K: w.k, Method: m})
			if err != nil {
				t.Log(err)
				return false
			}
			if !idsEqual(got, want) {
				t.Logf("method %v: kernel %v, scalar %v (k=%d, query=%v)", m, got, want, w.k, w.query)
				return false
			}
			got, _, err = RkNNT(w.x, w.query, Options{K: w.k, Method: m, Parallel: true})
			if err != nil {
				t.Log(err)
				return false
			}
			if !idsEqual(got, want) {
				t.Logf("method %v parallel: kernel %v, scalar %v", m, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
