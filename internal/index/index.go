package index

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/rtree"
)

// Endpoint roles stored in the Aux field of TR-tree entries.
const (
	Origin      = 0
	Destination = 1
)

// Options configures Build.
type Options struct {
	// TRShards is the number of TR-tree shards. Defaults to
	// runtime.GOMAXPROCS(0), min 1.
	TRShards int
}

func (o *Options) fill() {
	if o.TRShards <= 0 {
		o.TRShards = runtime.GOMAXPROCS(0)
	}
	if o.TRShards < 1 {
		o.TRShards = 1
	}
}

// Index bundles the RR-tree, sharded TR-tree, PList and NList over one
// dataset.
type Index struct {
	rr *rtree.Tree // route points; ID = route, Aux = stop

	// trShards are the TR-tree shards (transition endpoints; ID =
	// transition, Aux = role). A transition's endpoints live in shard
	// HomeShard(id) however it arrived — bulk load, dynamic add or
	// snapshot — so no placement table exists.
	trShards []*rtree.Tree

	// metaMu guards the bookkeeping shared between shards — transitions
	// and the expiry heap — against concurrent per-shard commits
	// (AddBatchToShard / RemoveBatchFromShard on distinct shards may run
	// at the same time). It does NOT cover the trees or the read paths:
	// readers must still be excluded from commits externally (the serving
	// layer's shard read locks do this). See shardcommit.go.
	metaMu sync.Mutex

	routes      map[model.RouteID]*model.Route
	transitions map[model.TransitionID]*model.Transition

	// plist maps a stop to the sorted set of routes covering it.
	plist map[model.StopID][]model.RouteID

	// expiry is a min-heap over timed transitions driving
	// ExpireTransitionsBefore; see expiry.go.
	expiry timeHeap

	// radii is the radius plane (nil when there is none); routeGen counts
	// route changes so a plane build can tell the route set moved under
	// it. See radii.go.
	radii    atomic.Pointer[radiusPlane]
	routeGen uint64

	// observer holds the optional telemetry sinks; see observe.go.
	observer Observer
}

// Build constructs the index over the dataset using bulk loading, with
// default options. The dataset is not retained; routes and transitions
// are copied.
func Build(ds *model.Dataset) (*Index, error) { return BuildOpts(ds, Options{}) }

// BuildOpts is Build with explicit sharding options.
func BuildOpts(ds *model.Dataset, opts Options) (*Index, error) {
	opts.fill()
	x := &Index{
		routes:      make(map[model.RouteID]*model.Route, len(ds.Routes)),
		transitions: make(map[model.TransitionID]*model.Transition, len(ds.Transitions)),
		plist:       make(map[model.StopID][]model.RouteID),
	}
	var rrEntries []rtree.Entry
	for i := range ds.Routes {
		r := ds.Routes[i]
		if err := validateRoute(&r); err != nil {
			return nil, err
		}
		if _, dup := x.routes[r.ID]; dup {
			return nil, fmt.Errorf("index: duplicate route ID %d", r.ID)
		}
		cp := copyRoute(&r)
		x.routes[r.ID] = cp
		for j, p := range cp.Pts {
			rrEntries = append(rrEntries, rtree.Entry{Pt: p, ID: cp.ID, Aux: cp.Stops[j]})
			x.addToPList(cp.Stops[j], cp.ID)
		}
	}
	// Bulk load places a transition where every later write will look for
	// it: its home shard. Each shard is still STR-packed by BulkLoad.
	shardEntries := make([][]rtree.Entry, opts.TRShards)
	for i := range ds.Transitions {
		tr := ds.Transitions[i]
		if err := validateTransition(&tr); err != nil {
			return nil, err
		}
		if _, dup := x.transitions[tr.ID]; dup {
			return nil, fmt.Errorf("index: duplicate transition ID %d", tr.ID)
		}
		cp := tr
		x.transitions[tr.ID] = &cp
		if tr.Time != 0 {
			x.expiry.push(timedEntry{time: tr.Time, id: tr.ID})
		}
		s := homeShard(tr.ID, opts.TRShards)
		shardEntries[s] = append(shardEntries[s],
			rtree.Entry{Pt: tr.O, ID: tr.ID, Aux: Origin},
			rtree.Entry{Pt: tr.D, ID: tr.ID, Aux: Destination})
	}
	x.rr = rtree.BulkLoad(rrEntries, rtree.WithIDAggregate())
	x.trShards = make([]*rtree.Tree, opts.TRShards)
	var wg sync.WaitGroup
	for s := range x.trShards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x.trShards[s] = rtree.BulkLoad(shardEntries[s])
		}(s)
	}
	wg.Wait()
	return x, nil
}

func validateRoute(r *model.Route) error {
	if len(r.Pts) < 2 {
		return fmt.Errorf("index: route %d has %d points, need at least 2 (Definition 1)", r.ID, len(r.Pts))
	}
	if len(r.Pts) != len(r.Stops) {
		return fmt.Errorf("index: route %d has %d points but %d stop IDs", r.ID, len(r.Pts), len(r.Stops))
	}
	for _, p := range r.Pts {
		if !p.Finite() {
			return fmt.Errorf("index: route %d has a coordinate that is not finite when squared (|v| must be <= 1e150)", r.ID)
		}
	}
	return nil
}

func copyRoute(r *model.Route) *model.Route {
	return &model.Route{
		ID:    r.ID,
		Stops: append([]model.StopID(nil), r.Stops...),
		Pts:   append([]geo.Point(nil), r.Pts...),
	}
}

// RouteTree returns the RR-tree.
func (x *Index) RouteTree() *rtree.Tree { return x.rr }

// TransitionShards returns the TR-tree shards. The slice is shared:
// callers must treat it as read-only.
func (x *Index) TransitionShards() []*rtree.Tree { return x.trShards }

// NumTransitionShards returns the number of TR-tree shards.
func (x *Index) NumTransitionShards() int { return len(x.trShards) }

// TransitionShardSizes returns the number of indexed endpoints per shard
// (two per transition), for occupancy stats.
func (x *Index) TransitionShardSizes() []int {
	sizes := make([]int, len(x.trShards))
	for i, t := range x.trShards {
		sizes[i] = t.Len()
	}
	return sizes
}

// TransitionPoints returns the total number of indexed transition
// endpoints across all shards.
func (x *Index) TransitionPoints() int {
	n := 0
	for _, t := range x.trShards {
		n += t.Len()
	}
	return n
}

// Route returns the route with the given ID, or nil.
func (x *Index) Route(id model.RouteID) *model.Route { return x.routes[id] }

// Transition returns the transition with the given ID, or nil.
func (x *Index) Transition(id model.TransitionID) *model.Transition {
	return x.transitions[id]
}

// NumRoutes returns the number of indexed routes.
func (x *Index) NumRoutes() int { return len(x.routes) }

// NumTransitions returns the number of indexed transitions.
func (x *Index) NumTransitions() int { return len(x.transitions) }

// Routes calls fn for every indexed route until fn returns false.
func (x *Index) Routes(fn func(*model.Route) bool) {
	for _, r := range x.routes {
		if !fn(r) {
			return
		}
	}
}

// Transitions calls fn for every indexed transition until fn returns false.
func (x *Index) Transitions(fn func(*model.Transition) bool) {
	for _, t := range x.transitions {
		if !fn(t) {
			return
		}
	}
}

// Crossover returns C(stop): the sorted set of routes covering the stop
// (Definition 7), backed by the PList. The returned slice is a fresh copy:
// callers may retain and mutate it without corrupting the index. Use
// CrossoverEach to iterate without the copy.
func (x *Index) Crossover(stop model.StopID) []model.RouteID {
	lst := x.plist[stop]
	if lst == nil {
		return nil
	}
	return append([]model.RouteID(nil), lst...)
}

// CrossoverEach calls fn for every route covering the stop, in ascending
// ID order, until fn returns false. It does not allocate.
func (x *Index) CrossoverEach(stop model.StopID, fn func(model.RouteID) bool) {
	for _, id := range x.plist[stop] {
		if !fn(id) {
			return
		}
	}
}

// CrossoverView returns C(stop) as a shared read-only view of the
// internal list — no copy. The slice is invalidated by route mutations
// and MUST NOT be modified or retained across writes; it exists for the
// query hot path (filterRoute builds one filter point per unpruned route
// point), where Crossover's defensive copy would allocate per point.
func (x *Index) CrossoverView(stop model.StopID) []model.RouteID {
	return x.plist[stop]
}

func (x *Index) addToPList(stop model.StopID, route model.RouteID) {
	lst := x.plist[stop]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= route })
	if i < len(lst) && lst[i] == route {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = route
	x.plist[stop] = lst
}

func (x *Index) removeFromPList(stop model.StopID, route model.RouteID) {
	lst := x.plist[stop]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= route })
	if i < len(lst) && lst[i] == route {
		lst = append(lst[:i], lst[i+1:]...)
		if len(lst) == 0 {
			delete(x.plist, stop)
		} else {
			x.plist[stop] = lst
		}
	}
}

// AddRoute indexes a new route dynamically. Stored rank radii the route
// is strictly inside of are re-probed (radii.go).
func (x *Index) AddRoute(r model.Route) error {
	if err := validateRoute(&r); err != nil {
		return err
	}
	if _, dup := x.routes[r.ID]; dup {
		return fmt.Errorf("index: duplicate route ID %d", r.ID)
	}
	cp := copyRoute(&r)
	stale := x.staleRadii(cp.Pts, false)
	x.routeGen++
	x.routes[r.ID] = cp
	for j, p := range cp.Pts {
		x.rr.Insert(rtree.Entry{Pt: p, ID: cp.ID, Aux: cp.Stops[j]})
		x.addToPList(cp.Stops[j], cp.ID)
	}
	x.reprobe(stale)
	return nil
}

// RemoveRoute removes a route and all its points from the index. It
// reports whether the route was present. Stored rank radii that counted
// the route are re-probed (radii.go).
func (x *Index) RemoveRoute(id model.RouteID) bool {
	r, ok := x.routes[id]
	if !ok {
		return false
	}
	stale := x.staleRadii(r.Pts, true)
	x.routeGen++
	for j, p := range r.Pts {
		x.rr.Delete(rtree.Entry{Pt: p, ID: r.ID, Aux: r.Stops[j]})
		x.removeFromPList(r.Stops[j], r.ID)
	}
	delete(x.routes, id)
	x.reprobe(stale)
	return true
}

// AddTransition indexes a new transition dynamically, assigning it to
// its home shard (HomeShard).
func (x *Index) AddTransition(t model.Transition) error {
	errs := x.AddTransitionsBatch([]model.Transition{t})
	return errs[0]
}

// AddTransitionsBatch indexes a batch of transitions, applying the
// per-shard inserts concurrently (one goroutine per shard with work).
// errs[i] is the outcome of ts[i].
func (x *Index) AddTransitionsBatch(ts []model.Transition) []error {
	errs := make([]error, len(ts))
	perShard := make([][]rtree.Entry, len(x.trShards))
	for i := range ts {
		t := ts[i]
		if errs[i] = validateTransition(&t); errs[i] != nil {
			continue
		}
		if _, dup := x.transitions[t.ID]; dup {
			errs[i] = fmt.Errorf("index: duplicate transition ID %d", t.ID)
			continue
		}
		cp := t
		x.transitions[t.ID] = &cp
		s := x.HomeShard(t.ID)
		if t.Time != 0 {
			x.expiry.push(timedEntry{time: t.Time, id: t.ID})
		}
		perShard[s] = append(perShard[s],
			rtree.Entry{Pt: t.O, ID: t.ID, Aux: Origin},
			rtree.Entry{Pt: t.D, ID: t.ID, Aux: Destination})
	}
	k := x.RadiusK()
	x.applyPerShard(perShard, func(s int, e rtree.Entry) { x.insertEntry(s, e, k) })
	return errs
}

// RemoveTransition removes a transition from the index. It reports whether
// the transition was present.
func (x *Index) RemoveTransition(id model.TransitionID) bool {
	return x.RemoveTransitionsBatch([]model.TransitionID{id})[0]
}

// RemoveTransitionsBatch removes a batch of transitions, applying the
// per-shard deletes concurrently. existed[i] reports whether ids[i] was
// present.
func (x *Index) RemoveTransitionsBatch(ids []model.TransitionID) []bool {
	existed := make([]bool, len(ids))
	perShard := make([][]rtree.Entry, len(x.trShards))
	for i, id := range ids {
		t, ok := x.transitions[id]
		if !ok {
			continue
		}
		existed[i] = true
		s := x.HomeShard(id)
		perShard[s] = append(perShard[s],
			rtree.Entry{Pt: t.O, ID: t.ID, Aux: Origin},
			rtree.Entry{Pt: t.D, ID: t.ID, Aux: Destination})
		delete(x.transitions, id)
	}
	x.applyPerShard(perShard, x.deleteEntry)
	return existed
}

// applyPerShard runs op over every queued entry, shard by shard. Shards
// are independent trees, so with more than one processor the per-shard
// work runs in parallel goroutines. Each busy shard's wall-clock is
// reported to the observer's per-shard write histogram.
func (x *Index) applyPerShard(perShard [][]rtree.Entry, op func(s int, e rtree.Entry)) {
	busy := 0
	for _, es := range perShard {
		if len(es) > 0 {
			busy++
		}
	}
	if busy == 0 {
		return
	}
	if busy == 1 || runtime.GOMAXPROCS(0) == 1 {
		for s, es := range perShard {
			if len(es) == 0 {
				continue
			}
			x.applyShard(s, es, op)
		}
		return
	}
	var wg sync.WaitGroup
	for s := range perShard {
		if len(perShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			x.applyShard(s, perShard[s], op)
		}(s)
	}
	wg.Wait()
}

// applyShard runs op over one shard's queued entries, in order, timing
// the pass when the shard is observed.
func (x *Index) applyShard(s int, es []rtree.Entry, op func(s int, e rtree.Entry)) {
	h := x.shardWriteHist(s)
	if h == nil {
		for _, e := range es {
			op(s, e)
		}
		return
	}
	start := time.Now()
	for _, e := range es {
		op(s, e)
	}
	h.RecordDuration(time.Since(start))
}

func (x *Index) deleteEntry(s int, e rtree.Entry) { x.trShards[s].Delete(e) }
