package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/model"
)

type opKind uint8

const (
	opRkNNT opKind = iota
	opBatch
	opAdd
	opDelete
	opExpire
	opSnapshot
	opPlan
)

var opNames = [...]string{"rknnt", "batch", "add", "delete", "expire", "snapshot", "plan"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request, independent of how it is delivered: the
// untraced run encodes it for HTTP, the traced run also applies it to a
// bare engine and a bare index.
type op struct {
	kind    opKind
	queries [][]geo.Point      // opRkNNT (one) and opBatch
	adds    []model.Transition // opAdd
	ids     []int32            // opDelete
	cutoff  int64              // opExpire
	expect  int                // opExpire: transitions the model says it drops
	src     int32              // opPlan
	dst     int32
	tau     float64
	fresh   bool // opPlan: first plan after a write
	// ride ops (expiry, checkpoint) have no slot of their own in an open
	// loop: they run right after the delete of their tick, so the time
	// they take is charged to the writes queued behind them.
	ride bool
}

// stream yields a connection's ops in order. Streams depend only on the
// seed and the generated city, never on what the server answers.
type stream func() op

func subRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func coldQueries(city *gen.City, rng *rand.Rand, n int) [][]geo.Point {
	qs := make([][]geo.Point, n)
	for i := range qs {
		qs[i] = city.Query(rng, queryPoints, queryInterval)
	}
	return qs
}

// arrival draws a transition from the city's own hotspot mixture by
// resampling endpoints of bulk-loaded transitions with a little noise.
func arrival(ds *model.Dataset, rng *rand.Rand, id int32, time int64) model.Transition {
	pick := func(p geo.Point) geo.Point {
		return geo.Pt(p.X+rng.NormFloat64()*0.2, p.Y+rng.NormFloat64()*0.2)
	}
	n := len(ds.Transitions)
	return model.Transition{
		ID:   id,
		O:    pick(ds.Transitions[rng.Intn(n)].O),
		D:    pick(ds.Transitions[rng.Intn(n)].D),
		Time: time,
	}
}

// tickStream is the write side of mixed_stream. Tick t adds tickAdds
// arrivals (IDs from dynamicIDBase up) stamped t+1 and deletes the tickDeletes oldest
// bulk-loaded IDs; every expireEvery-th tick expires the arrivals of the
// expireTicks oldest ticks still live; every snapshotEvery-th takes an
// incremental checkpoint. Adds and removals balance, so the live set is
// stationary. No ID is ever removed and re-added.
func tickStream(ds *model.Dataset, rng *rand.Rand) stream {
	var pending []op
	tick := 0
	return func() op {
		if len(pending) == 0 {
			t := tick
			tick++
			add := op{kind: opAdd}
			for j := 0; j < tickAdds; j++ {
				add.adds = append(add.adds, arrival(ds, rng, int32(dynamicIDBase+t*tickAdds+j), int64(t+1)))
			}
			del := op{kind: opDelete}
			for j := 0; j < tickDeletes; j++ {
				del.ids = append(del.ids, int32(t*tickDeletes+j+1))
			}
			pending = append(pending, add, del)
			if (t+1)%expireEvery == 0 {
				e := (t + 1) / expireEvery
				pending = append(pending, op{kind: opExpire, cutoff: int64(e*expireTicks + 1), expect: expireTicks * tickAdds, ride: true})
			}
			if (t+1)%snapshotEvery == 0 {
				pending = append(pending, op{kind: opSnapshot, ride: true})
			}
		}
		o := pending[0]
		pending = pending[1:]
		return o
	}
}

// planStream cycles one write and plansPerCycle plans between seeded
// origin/destination pairs planMinKm-planMaxKm apart, each with
// tau = planTauRatio * shortest network distance.
func planStream(city *gen.City, rng *rand.Rand) stream {
	cycle, step := 0, 0
	return func() op {
		if step == 0 {
			step++
			add := op{kind: opAdd}
			for j := 0; j < planAdds; j++ {
				add.adds = append(add.adds, arrival(city.Dataset, rng, int32(dynamicIDBase+cycle*planAdds+j), 0))
			}
			cycle++
			return add
		}
		for {
			s, e, ok := city.ODPair(rng, planMinKm, planMaxKm)
			if !ok {
				panic("bench: planner city has no origin/destination pair in range")
			}
			_, d, ok := city.Graph.ShortestPath(s, e)
			if !ok {
				continue
			}
			o := op{kind: opPlan, src: s, dst: e, tau: d * planTauRatio, fresh: step == 1}
			step = (step + 1) % (plansPerCycle + 1)
			return o
		}
	}
}

// newStreams returns one stream per connection of the workload.
func newStreams(w *workload, city *gen.City, seed int64) []stream {
	cold := func(kind opKind, n int, salt int64) stream {
		rng := subRand(seed, salt)
		return func() op { return op{kind: kind, queries: coldQueries(city, rng, n)} }
	}
	switch w.name {
	case "read_cold":
		return []stream{cold(opRkNNT, 1, 10), cold(opRkNNT, 1, 11)}
	case "read_hot":
		table := coldQueries(city, subRand(seed, 1), hotRoutes)
		return []stream{zipfStream(table, subRand(seed, 10)), zipfStream(table, subRand(seed, 11))}
	case "batch_cold":
		return []stream{cold(opBatch, batchQueries, 10), cold(opBatch, batchQueries, 11)}
	case "mixed_stream":
		table := coldQueries(city, subRand(seed, 1), hotRoutes)
		return []stream{zipfStream(table, subRand(seed, 10)), tickStream(city.Dataset, subRand(seed, 11))}
	case "plan_fresh":
		return []stream{planStream(city, subRand(seed, 10))}
	}
	panic("bench: no stream for workload " + w.name)
}

// zipfStream draws Zipf-distributed entries of a fixed route table built
// once from the seed (the PredefinedRoutes idiom: the hot set is data,
// not chance).
func zipfStream(table [][]geo.Point, rng *rand.Rand) stream {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(table)-1))
	return func() op {
		i := z.Uint64()
		return op{kind: opRkNNT, queries: table[i : i+1]}
	}
}

// mergedPrefix interleaves the workload's connection streams into the
// single order the traced run replays and the stream hash pins: round
// robin for the read-only loops, a fixed mix of queries per write otherwise.
func mergedPrefix(w *workload, city *gen.City, seed int64, n int) []op {
	ss := newStreams(w, city, seed)
	out := make([]op, 0, n)
	if !w.writes {
		for i := 0; len(out) < n; i++ {
			out = append(out, ss[i%len(ss)]())
		}
		return out
	}
	// A fixed number of queries per write slot (the live mix depends on how
	// fast the server answers); ride ops follow the slotted op they trail.
	held := ss[1]()
	for len(out) < n {
		for i := 0; i < traceQueryMix; i++ {
			out = append(out, ss[0]())
		}
		out = append(out, held)
		for held = ss[1](); held.ride; held = ss[1]() {
			out = append(out, held)
		}
	}
	return out[:n]
}

// --- wire encoding ---

type pointDTO struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type transitionDTO struct {
	ID   int32    `json:"id"`
	O    pointDTO `json:"o"`
	D    pointDTO `json:"d"`
	Time int64    `json:"time,omitempty"`
}

func pointsDTO(pts []geo.Point) []pointDTO {
	out := make([]pointDTO, len(pts))
	for i, p := range pts {
		out[i] = pointDTO{p.X, p.Y}
	}
	return out
}

// request is an op encoded for the HTTP API.
type request struct {
	method, path string
	body         []byte
}

// encode renders the op as the request the server sees. snapshotPath is
// where checkpoint ops tell the server to write.
func (o *op) encode(snapshotPath string) request {
	var v any
	r := request{method: "POST"}
	switch o.kind {
	case opRkNNT:
		r.path = "/v1/rknnt"
		v = map[string]any{"query": pointsDTO(o.queries[0]), "k": queryK, "method": "dc"}
	case opBatch:
		r.path = "/v1/rknnt/batch"
		qs := make([][]pointDTO, len(o.queries))
		for i, q := range o.queries {
			qs[i] = pointsDTO(q)
		}
		v = map[string]any{"queries": qs, "k": queryK, "method": "dc"}
	case opAdd:
		r.path = "/v1/transitions"
		ts := make([]transitionDTO, len(o.adds))
		for i, t := range o.adds {
			ts[i] = transitionDTO{t.ID, pointDTO{t.O.X, t.O.Y}, pointDTO{t.D.X, t.D.Y}, t.Time}
		}
		v = map[string]any{"transitions": ts}
	case opDelete:
		r.method, r.path = "DELETE", "/v1/transitions"
		v = map[string]any{"ids": o.ids}
	case opExpire:
		r.path = "/v1/transitions/expire"
		v = map[string]any{"cutoff": o.cutoff}
	case opSnapshot:
		r.path = "/v1/snapshot?incremental=1"
		v = map[string]any{"path": snapshotPath}
	case opPlan:
		r.path = "/v1/plan"
		v = map[string]any{"source_stop": o.src, "target_stop": o.dst, "tau": o.tau, "k": queryK, "objective": "max"}
	}
	body, err := json.Marshal(v) // map keys marshal sorted: deterministic
	if err != nil {
		panic(err)
	}
	r.body = body
	return r
}

// streamHash is the SHA-256 of the first n merged requests of a workload
// as the server would receive them.
func streamHash(w *workload, city *gen.City, seed int64, n int) string {
	h := sha256.New()
	for _, o := range mergedPrefix(w, city, seed, n) {
		r := o.encode("city.arena")
		h.Write([]byte(r.method + " " + r.path + "\n"))
		h.Write(r.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedStreams is streamHash of each workload's first pinnedOps requests
// for seed 1. A change to internal/gen (or to the generators here) that
// silently alters the load fails the tests and, because a nested module's
// tests are not part of the repository's own, every run: runWorkload
// counts a differing hash as a failed operation. Re-pin only in a change
// whose purpose is to redefine the benchmark, and re-measure the baseline.
var pinnedStreams = map[string]string{
	"read_cold":    "c6797a9f90b14ec5223a62b47ed1f83e3cb0185ae1a688281c09471f8349855c",
	"read_hot":     "8820ce96e206b12357353bed605f4fe5093cffd5744bfd206e6adb508728f60c",
	"batch_cold":   "7494356d64775f0833d5c8fa08eb631dbb7da847af84510b1e8ea6957ea62347",
	"mixed_stream": "283dd318858302239d8e1c2adabcb6c03c9d595ae7ab8ed501c7342044bdb042",
	"plan_fresh":   "a5201954266e78115c962d6321796a5141985ef2423954de325c518b4fbd4382",
}

// pinnedOps is how many merged requests the pinned hash covers.
func (w *workload) pinnedOps() int {
	if w.name == "batch_cold" {
		return 400 / (batchQueries / 2)
	}
	return 400
}
