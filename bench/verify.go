package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/bench/oracle"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/model"
)

// liveSet is the benchmark's own model of which transitions the server
// holds: the bulk load plus every acknowledged write.
type liveSet struct {
	byID map[int32]model.Transition
	ids  []int32 // sorted view for sampling, rebuilt when stale
}

func newLiveSet(bulk []model.Transition) *liveSet {
	l := &liveSet{byID: make(map[int32]model.Transition, len(bulk))}
	for _, t := range bulk {
		l.byID[t.ID] = t
	}
	return l
}

// apply replays one acknowledged write.
func (l *liveSet) apply(e *logEntry) {
	if !e.acked {
		return
	}
	l.ids = nil
	switch e.op.kind {
	case opAdd:
		for _, t := range e.op.adds {
			l.byID[t.ID] = t
		}
	case opDelete:
		for _, id := range e.op.ids {
			delete(l.byID, id)
		}
	case opExpire:
		for id, t := range l.byID {
			if t.Time != 0 && t.Time < e.op.cutoff {
				delete(l.byID, id)
			}
		}
	}
}

func (l *liveSet) sortedIDs() []int32 {
	if l.ids == nil {
		l.ids = make([]int32, 0, len(l.byID))
		for id := range l.byID {
			l.ids = append(l.ids, id)
		}
		sort.Slice(l.ids, func(i, j int) bool { return l.ids[i] < l.ids[j] })
	}
	return l.ids
}

// verifier holds the oracle and collects what it finds wrong.
type verifier struct {
	orc       *oracle.Oracle
	rng       *rand.Rand
	graph     *graph.Graph
	seen      map[uint64]bool // identical (query, answer) pairs are verified once
	ties      int             // memberships a tie decides: either answer was accepted
	attempted int
	failed    int
	failures  []string
}

func newVerifier(city *gen.City, seed int64) *verifier {
	routes := make([][]geo.Point, len(city.Dataset.Routes))
	for i := range city.Dataset.Routes {
		routes[i] = city.Dataset.Routes[i].Pts
	}
	return &verifier{
		orc:   oracle.New(routes),
		rng:   subRand(seed, 99),
		graph: city.Graph,
		seen:  make(map[uint64]bool),
	}
}

func (v *verifier) fail(format string, args ...any) {
	v.failed++
	if len(v.failures) < 20 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

func answerKey(a *answer) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, p := range a.query {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
	}
	for _, id := range a.ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	h.Write(b)
	return h.Sum64()
}

// answer checks one RkNNT answer against the live set: every returned ID
// must be live and the oracle must not say No to it; of the rest, the
// oracle must not say Yes to any of a seeded sample of checkSample (or to
// any at all, with full). Where it says Tie, either answer is accepted.
func (v *verifier) answer(a *answer, live *liveSet, full bool) {
	key := answerKey(a)
	if v.seen[key] && !full {
		return
	}
	v.seen[key] = true
	v.attempted++
	returned := make(map[int32]bool, len(a.ids))
	for _, id := range a.ids {
		returned[id] = true
		t, ok := live.byID[id]
		if !ok {
			v.fail("rknnt %v: returned %d is not live", a.query[0], id)
			return
		}
		switch v.orc.Matches(t.O, t.D, a.query, queryK) {
		case oracle.No:
			v.fail("rknnt %v: returned %d fails the oracle", a.query[0], id)
			return
		case oracle.Tie:
			v.ties++
		}
	}
	ids := live.sortedIDs()
	n := checkSample
	if full || n > len(ids) {
		n = len(ids)
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		if !full {
			id = ids[v.rng.Intn(len(ids))]
		}
		if returned[id] {
			continue
		}
		t := live.byID[id]
		switch v.orc.Matches(t.O, t.D, a.query, queryK) {
		case oracle.Yes:
			v.fail("rknnt %v: %d passes the oracle but was not returned", a.query[0], id)
			return
		case oracle.Tie:
			v.ties++
		}
	}
}

// plan checks one planning answer: the path runs from source to target
// along network edges, its length is the reported dist and within tau,
// and count is the oracle's |omega(R)| over the transitions live then,
// give or take the transitions a tie decides.
func (v *verifier) plan(o *op, r *planResp, live *liveSet) {
	v.attempted++
	if !r.Feasible {
		v.fail("plan %d->%d tau %.3f: infeasible, but the shortest path fits", o.src, o.dst, o.tau)
		return
	}
	if r.Truncated {
		v.fail("plan %d->%d: truncated without an expansion cap", o.src, o.dst)
		return
	}
	if len(r.PathStops) < 2 || r.PathStops[0] != o.src || r.PathStops[len(r.PathStops)-1] != o.dst {
		v.fail("plan %d->%d: path %v does not join them", o.src, o.dst, r.PathStops)
		return
	}
	d, err := v.graph.PathDist(r.PathStops)
	if err != nil {
		v.fail("plan %d->%d: %v", o.src, o.dst, err)
		return
	}
	if math.Abs(d-r.Dist) > 1e-9*(1+d) || r.Dist > o.tau*(1+1e-12) {
		v.fail("plan %d->%d: psi(R) reported %.6f, measured %.6f, tau %.6f", o.src, o.dst, r.Dist, d, o.tau)
		return
	}
	route := make([]geo.Point, len(r.PathStops))
	for i, s := range r.PathStops {
		route[i] = v.graph.Point(s)
	}
	want, tied := 0, 0
	for _, t := range live.byID {
		switch v.orc.Matches(t.O, t.D, route, queryK) {
		case oracle.Yes:
			want++
		case oracle.Tie:
			tied++
		}
	}
	v.ties += tied
	if r.Count < want || r.Count > want+tied || len(r.Transitions) != r.Count {
		v.fail("plan %d->%d: count %d (%d ids), oracle |omega(R)| = %d to %d", o.src, o.dst, r.Count, len(r.Transitions), want, want+tied)
	}
}

// replay walks a connection's log from the bulk state, checking each plan
// against the live set at that point, and returns the final live set and
// the live set as of the last acknowledged checkpoint (nil if none).
func (v *verifier) replay(bulk []model.Transition, log []logEntry) (final, atCheckpoint *liveSet) {
	live := newLiveSet(bulk)
	for i := range log {
		e := &log[i]
		switch {
		case e.plan != nil:
			v.plan(&e.op, e.plan, live)
		case e.op.kind == opSnapshot && e.acked:
			atCheckpoint = &liveSet{byID: make(map[int32]model.Transition, len(live.byID))}
			for id, t := range live.byID {
				atCheckpoint.byID[id] = t
			}
		default:
			live.apply(e)
		}
	}
	return live, atCheckpoint
}

// restart checks a server warm-booted from the chain after SIGKILL, using
// the only per-ID probe the API has: DELETE reports which IDs it found.
// Every removal acknowledged before the checkpoint must be absent and
// every arrival live at the checkpoint present. It consumes the arrivals.
func (v *verifier) restart(c *client, addr string, log []logEntry, at *liveSet) {
	var present, absent []int32
	for i := range log {
		e := &log[i]
		if !e.acked {
			continue
		}
		absent = append(absent, e.op.ids...)
		for _, t := range e.op.adds {
			if _, ok := at.byID[t.ID]; ok {
				present = append(present, t.ID)
			} else {
				absent = append(absent, t.ID)
			}
		}
	}
	for _, probe := range []struct {
		ids  []int32
		want int
		what string
	}{{absent, 0, "removed or expired before the checkpoint"}, {present, len(present), "added before the checkpoint"}} {
		v.attempted++
		o := op{kind: opDelete, ids: probe.ids}
		status, body, err := c.do(addr, o.encode(""), "")
		var r deleteResp
		if err == nil && status == 200 {
			err = json.Unmarshal(body, &r)
		}
		if err != nil || status != 200 || r.Removed != probe.want {
			v.fail("restart: of %d transitions %s the server holds %d (status %d, %v)", len(probe.ids), probe.what, r.Removed, status, err)
		}
	}
}
