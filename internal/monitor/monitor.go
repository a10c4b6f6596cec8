// Package monitor implements continuous RkNNT: standing queries whose
// result sets are maintained incrementally as transitions arrive and
// expire. This is the paper's motivating dynamic scenario ("old
// transitions expire and new transitions arrive ... providing up-to-date
// answers") turned into an API, in the spirit of the continuous reverse-NN
// monitoring line of work the paper cites (Cheema et al.).
//
// A full RkNNT query runs once at registration. Afterwards each arriving
// transition costs two RR-tree probes per distinct k among the standing
// queries — index.RankRadius2, the squared distance from an endpoint to
// its k-th nearest route, which does not depend on any query — and then
// one point-route distance and one compare per endpoint per standing
// query (an endpoint takes Q as a kNN iff PointRouteDist2(t, Q) <=
// r²_k(t), see package core). Neither the transition set size nor the
// number of standing queries adds tree probes.
package monitor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/obs"
)

// Event describes one change to a standing query's result set.
type Event struct {
	Query      QueryID
	Transition model.TransitionID
	Added      bool // true: entered the result set; false: left it
}

// QueryID identifies a registered standing query.
type QueryID int32

// Monitor maintains standing RkNNT queries over one index. The Monitor
// must be the sole writer of transitions to the index: route updates are
// allowed through RouteChanged (which recomputes), transition updates must
// go through Add/Remove so the standing results stay consistent.
//
// Monitor is safe for concurrent use.
type Monitor struct {
	mu      sync.Mutex
	x       *index.Index
	nextID  QueryID
	queries map[QueryID]*standing
	metrics Metrics
}

// Metrics carries the monitor's optional event counters. All fields are
// nil-safe obs counters, so a zero Metrics records nothing.
type Metrics struct {
	// StandingAdds / StandingRemoves count Register / successful
	// Unregister calls.
	StandingAdds    *obs.Counter
	StandingRemoves *obs.Counter
	// RankChecks counts RR-tree probes (index.RankRadius2 calls) performed
	// for arriving transitions: two per transition per distinct standing
	// k. The per-query distance compares that follow are not counted.
	RankChecks *obs.Counter
	// ResultAdds / ResultRemoves count transitions entering / leaving
	// standing result sets.
	ResultAdds    *obs.Counter
	ResultRemoves *obs.Counter
	// Recomputes counts full per-query recomputations (RouteChanged).
	Recomputes *obs.Counter
}

// SetMetrics installs the event counters. Call before concurrent use.
func (m *Monitor) SetMetrics(mt Metrics) { m.metrics = mt }

type standing struct {
	id      QueryID
	query   []geo.Point
	k       int
	sem     core.Semantics
	masks   map[model.TransitionID]uint8 // endpoint masks of current matches
	results map[model.TransitionID]bool  // current result set under sem
}

// New returns a Monitor over the index.
func New(x *index.Index) *Monitor {
	return &Monitor{x: x, queries: make(map[QueryID]*standing)}
}

// Register adds a standing query, computing its initial result set with a
// full RkNNT pass. It returns the query ID and the initial results in
// ascending order.
func (m *Monitor) Register(query []geo.Point, k int, sem core.Semantics) (QueryID, []model.TransitionID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	masks, err := core.EndpointMasks(m.x, query, k, core.DivideConquer)
	if err != nil {
		return 0, nil, err
	}
	m.nextID++
	st := &standing{
		id:      m.nextID,
		query:   append([]geo.Point(nil), query...),
		k:       k,
		sem:     sem,
		masks:   masks,
		results: make(map[model.TransitionID]bool),
	}
	for id, mask := range masks {
		if st.matches(mask) {
			st.results[id] = true
		}
	}
	m.queries[st.id] = st
	m.metrics.StandingAdds.Inc()
	return st.id, st.snapshot(), nil
}

func (st *standing) matches(mask uint8) bool {
	if st.sem == core.ForAll {
		return mask == 3
	}
	return mask != 0
}

func (st *standing) snapshot() []model.TransitionID {
	out := make([]model.TransitionID, 0, len(st.results))
	for id := range st.results {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Unregister removes a standing query. It reports whether it existed.
func (m *Monitor) Unregister(id QueryID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.queries[id]; !ok {
		return false
	}
	delete(m.queries, id)
	m.metrics.StandingRemoves.Inc()
	return true
}

// Results returns the current result set of a standing query.
func (m *Monitor) Results(id QueryID) ([]model.TransitionID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.queries[id]
	if !ok {
		return nil, fmt.Errorf("monitor: unknown query %d", id)
	}
	return st.snapshot(), nil
}

// Add indexes a new transition and updates every standing query,
// returning the resulting events (at most one per query).
func (m *Monitor) Add(t model.Transition) ([]Event, error) {
	events, errs := m.AddBatch([]model.Transition{t})
	return events, errs[0]
}

// AddBatch indexes a batch of transitions in one pass — the index applies
// the per-shard inserts concurrently — and updates every standing query.
// errs[i] is the outcome of ts[i]; events cover the whole batch in ts
// order.
func (m *Monitor) AddBatch(ts []model.Transition) ([]Event, []error) {
	errs := m.x.AddTransitionsBatch(ts)
	return m.ApplyAdds(ts, errs), errs
}

// ApplyAdds updates every standing query for transitions already
// committed to the index by the caller (errs[i] == nil marks ts[i] as
// committed), returning the resulting events. It performs NO index
// writes — serving layers with their own commit pipelines apply the
// index mutation under their shard locks and then call this for the
// standing-query maintenance alone.
func (m *Monitor) ApplyAdds(ts []model.Transition, errs []error) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var events []Event
	var byK []kRadii
	for i := range ts {
		if errs != nil && errs[i] != nil {
			continue
		}
		t := &ts[i]
		byK = byK[:0]
		for _, st := range m.queries {
			r := m.radii(&byK, t, st.k)
			mask := uint8(0)
			if geo.PointRouteDist2(t.O, st.query) <= r.ro2 {
				mask |= 1
			}
			if geo.PointRouteDist2(t.D, st.query) <= r.rd2 {
				mask |= 2
			}
			if mask != 0 {
				st.masks[t.ID] = mask
			}
			if st.matches(mask) {
				st.results[t.ID] = true
				m.metrics.ResultAdds.Inc()
				events = append(events, Event{Query: st.id, Transition: t.ID, Added: true})
			}
		}
	}
	return events
}

// kRadii is the squared rank radii of one arriving transition's
// endpoints at one k.
type kRadii struct {
	k        int
	ro2, rd2 float64
}

// radii returns t's rank radii at k from byK, probing the RR-tree the
// first time k comes up for t. Standing queries share few distinct k
// values, so a slice scan beats a map.
func (m *Monitor) radii(byK *[]kRadii, t *model.Transition, k int) kRadii {
	for _, r := range *byK {
		if r.k == k {
			return r
		}
	}
	m.metrics.RankChecks.Add(2)
	r := kRadii{k, m.x.RankRadius2(t.O, k), m.x.RankRadius2(t.D, k)}
	*byK = append(*byK, r)
	return r
}

// Remove drops a transition and updates every standing query, returning
// the resulting events.
func (m *Monitor) Remove(id model.TransitionID) ([]Event, bool) {
	events, existed := m.RemoveBatch([]model.TransitionID{id})
	return events, existed[0]
}

// RemoveBatch drops a batch of transitions in one pass (per-shard deletes
// applied concurrently) and updates every standing query. existed[i]
// reports whether ids[i] was present.
func (m *Monitor) RemoveBatch(ids []model.TransitionID) ([]Event, []bool) {
	existed := m.x.RemoveTransitionsBatch(ids)
	return m.ApplyRemoves(ids, existed), existed
}

// ApplyRemoves updates every standing query for transitions already
// removed from the index by the caller (removed[i] marks ids[i] as
// actually removed; nil means all), returning the resulting events.
// Like ApplyAdds it performs no index writes.
func (m *Monitor) ApplyRemoves(ids []model.TransitionID, removed []bool) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var events []Event
	for i, id := range ids {
		if removed != nil && !removed[i] {
			continue
		}
		for _, st := range m.queries {
			delete(st.masks, id)
			if st.results[id] {
				delete(st.results, id)
				m.metrics.ResultRemoves.Inc()
				events = append(events, Event{Query: st.id, Transition: id, Added: false})
			}
		}
	}
	return events
}

// ExpireBefore removes every timed transition older than cutoff,
// returning all resulting events. Victims come from the index's expiry
// heap — O(expired · log n), not a scan of every live transition.
func (m *Monitor) ExpireBefore(cutoff int64) []Event {
	m.mu.Lock()
	victims := m.x.DrainTimedBefore(cutoff)
	m.mu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	events, _ := m.RemoveBatch(victims)
	return events
}

// RouteChanged must be called after routes are added to or removed from
// the index: route changes shift every transition's rank, so all standing
// results are recomputed from scratch. It returns the delta events.
func (m *Monitor) RouteChanged() ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var events []Event
	for _, st := range m.queries {
		m.metrics.Recomputes.Inc()
		masks, err := core.EndpointMasks(m.x, st.query, st.k, core.DivideConquer)
		if err != nil {
			return nil, err
		}
		newResults := make(map[model.TransitionID]bool)
		for id, mask := range masks {
			if st.matches(mask) {
				newResults[id] = true
			}
		}
		for id := range newResults {
			if !st.results[id] {
				events = append(events, Event{Query: st.id, Transition: id, Added: true})
			}
		}
		for id := range st.results {
			if !newResults[id] {
				events = append(events, Event{Query: st.id, Transition: id, Added: false})
			}
		}
		st.masks = masks
		st.results = newResults
	}
	return events, nil
}
