package serve

import (
	"sync"
	"time"

	"repro/internal/core"
)

// Radius-plane admission: which k, if any, owns the index's radius plane
// (index/radii.go), and how the plane gets built without anybody waiting
// for it.
//
// A plane turns every query at its k into one descent, and costs every
// arriving transition two RR-tree probes at that k for as long as it
// exists. A probe grows roughly as k², so neither the build nor the
// write tax is bounded unless k is; and a client can send any k. The
// rules:
//
//   - only k <= maxPlaneK ever gets a plane;
//   - a k earns the plane by traffic, never by asking once: with no plane,
//     planeAdmitAfter executed requests at k (a single miss, or a batch
//     that executed a miss) inside one window of planeWindow such
//     requests; with a plane at another k, only at a window boundary
//     and only by out-counting the incumbent two to one over that window.
//     A plane whose k lost to traffic beyond maxPlaneK is dropped;
//   - a request counts once: a single query that missed the cache
//     (Engine.RkNNT), a batch request that executed at least one miss
//     (Engine.RkNNTBatch), however many members it carries, and a plan
//     precompute that ran (Engine.precomputed), however many network
//     vertices it queried — counting members or vertices would let one
//     request take or move the plane. A plan served from a current
//     precompute, or one that waited on another request's precompute,
//     executed nothing and does not count. A precompute runs once per
//     write a plan follows, so 16 write-then-plan cycles earn the
//     planner's k the plane; from then on each precompute is one descent
//     per vertex (EndpointMasks);
//   - no request builds a plane. The query that tips the count — like
//     every query at a k without a plane — runs the paper's pipeline and
//     returns; a background goroutine builds, and queries switch to the
//     descent when the plane is published;
//   - the build holds the engine read locks twice, briefly: to copy the
//     endpoint coordinates, and to attach the finished values (one
//     comparison per endpoint). The probes in between — all of the cost —
//     run under structMu.R alone, a chunk at a time, so shard writers
//     commit beside them and a route change waits for one chunk at most.
//     A route change voids the build (the radii it probed are stale);
//     traffic will ask again.
const (
	maxPlaneK       = 32
	planeAdmitAfter = 16
	planeWindow     = 512
	planeProbeChunk = 2048 // endpoints probed per structMu.R hold (a few ms)
)

// planeAdmission counts executed plane-eligible requests (a single miss,
// a batch that executed a miss, or a plan precompute) per k over the
// current window. Slot 0
// stands for every k beyond maxPlaneK.
type planeAdmission struct {
	mu       sync.Mutex
	counts   [maxPlaneK + 1]uint32
	total    uint32
	building bool

	// buildMu serialises setPlane; held for a whole build.
	buildMu sync.Mutex
	// probeHook, when set (tests), runs after each probe chunk under the
	// locks the build holds there.
	probeHook func()
}

// notePlaneDemand records that one request with these options executed
// (was not served from the cache) — a single query, a batch of them, or
// a plan's precompute — and starts a background build when the counts now say the plane belongs
// to another k. Called after the request has been answered, outside every
// engine lock.
func (e *Engine) notePlaneDemand(opts core.Options) {
	if !core.PlaneEligible(opts) {
		return
	}
	k := opts.K
	if k > maxPlaneK {
		k = 0
	}
	a := &e.planeAdm
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counts[k]++
	a.total++
	cur := e.idx.RadiusK()
	want := cur
	switch {
	case cur == 0:
		if k != 0 && a.counts[k] >= planeAdmitAfter {
			want = k
		}
	case a.total >= planeWindow:
		hot := 0
		for i, c := range a.counts {
			if c > a.counts[hot] {
				hot = i
			}
		}
		if a.counts[hot] > 2*a.counts[cur] {
			want = hot
		}
	}
	if want != cur || a.total >= planeWindow {
		a.counts = [maxPlaneK + 1]uint32{}
		a.total = 0
	}
	if want == cur || a.building {
		return
	}
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return
	}
	e.wg.Add(1)
	e.closeMu.RUnlock()
	a.building = true
	go func() {
		defer e.wg.Done()
		e.setPlane(want)
		a.mu.Lock()
		a.building = false
		a.mu.Unlock()
	}()
}

// setPlane makes the radius plane be the one for k (0: none). It reports
// false when the build was abandoned — the engine closed or the route set
// changed under it — leaving whatever plane there was.
func (e *Engine) setPlane(k int) bool {
	e.planeAdm.buildMu.Lock()
	defer e.planeAdm.buildMu.Unlock()
	if k == 0 {
		e.rlockAll()
		e.idx.DropRadii()
		e.runlockAll()
		return true
	}
	start := time.Now()
	e.rlockAll()
	b := e.idx.BeginRadii(k)
	e.runlockAll()
	for more := true; more; {
		select {
		case <-e.quit:
			return false
		default:
		}
		e.structMu.RLock()
		more = e.idx.ProbeRadii(b, planeProbeChunk)
		if e.planeAdm.probeHook != nil {
			e.planeAdm.probeHook()
		}
		e.structMu.RUnlock()
	}
	// Writers are out, queries are not: one that already holds the
	// previous plane finishes on it.
	e.rlockAll()
	ok := e.idx.InstallRadii(b)
	e.runlockAll()
	if ok {
		e.mx.planeBuild.RecordDuration(time.Since(start))
	}
	return ok
}
