// Package index implements the index structures of Section 4.1.2 of the
// paper: the RR-tree over route points, the TR-tree over transition
// endpoints, the PList (inverted list from stop to covering routes, i.e.
// the crossover route set of Definition 7) and the NList (R-tree node to
// the set of route IDs stored beneath it).
//
// The indexes support dynamic updates: routes and transitions can be added
// and removed at any time, which is the paper's motivating scenario of
// continuously arriving passenger transitions.
//
// # Sharding
//
// The TR-tree is split into independent shards (default GOMAXPROCS).
// One rule places a transition: shard HomeShard(id), a stable hash of
// its ID, whether it arrives by bulk load, dynamic add or snapshot (a
// snapshot placing it anywhere else is refused). Shards therefore hold
// similar-size subsets, both endpoints of a transition live in the same
// shard, and every write on one ID finds it — and serialises — on one
// shard without a placement table. Write batches apply to shards
// concurrently; queries traverse shards independently and merge.
//
// # NList freshness
//
// The NList consumed by query verification is the RR-tree's incremental
// distinct-ID aggregate (rtree.WithIDAggregate): merged and unmerged
// along the ancestor chain on every route insert and delete. Invariant:
// NList(n) is exact after every completed mutation — there is no rebuild
// window, so a query admitted after a write batch commits always sees
// lists that reflect that batch. A test-side wholesale rebuild of every
// list (shard_test.go) is the differential oracle the aggregate must
// match.
//
// # Concurrency
//
// All mutating methods require external synchronisation (the serving
// layer provides a single-writer discipline). Read-only methods — queries,
// NList/NListEach, Crossover — are safe to call concurrently with each
// other.
//
// # Persistence
//
// WriteSnapshot/ReadSnapshot store the whole index as an arena snapshot
// container (internal/dataio): the RR-tree and every TR-tree shard as
// verbatim arena sections, plus the shard assignment, expiry heap and
// route/transition tables (snapshot.go). A loaded index is structurally
// identical to the saved one — same NodeIDs, same shard layout, same
// aggregates — so it answers queries identically and keeps accepting
// dynamic updates. See docs/ARCHITECTURE.md for the file format.
package index
