package index

import (
	"repro/internal/model"
	"repro/internal/rtree"
)

// NList (Section 4.1.2): for every RR-tree node, the sorted set of route
// IDs with at least one point beneath it.
//
// The RR-tree is built with WithIDAggregate, which merges/unmerges route
// IDs along the insert/delete path, so the lists are always fresh at
// O(depth) cost per update and reads take no lock. This is what makes the
// dynamic scenario cheap: a write batch never forces an O(tree) rebuild
// before the next query. A test-side wholesale rebuild is the oracle the
// incremental lists must match exactly.

// NList returns the sorted set of route IDs that have at least one point
// beneath the given RR-tree node. The returned slice is a fresh copy:
// callers may retain and mutate it freely. Hot paths should prefer
// NListEach, which avoids the copy.
func (x *Index) NList(n rtree.NodeID) []model.RouteID {
	lst := x.rr.IDList(n)
	if lst == nil {
		return nil
	}
	return append([]model.RouteID(nil), lst...)
}

// NListEach calls fn for every route ID beneath the node, in ascending
// order, until fn returns false. It takes no lock and does not allocate,
// so it is safe for concurrent queries.
func (x *Index) NListEach(n rtree.NodeID, fn func(model.RouteID) bool) {
	for _, id := range x.rr.IDList(n) {
		if !fn(id) {
			return
		}
	}
}
