// Package serve turns the single-threaded RkNNT index into a
// concurrency-safe serving engine: the single-writer/many-reader core
// behind the HTTP API in internal/server.
//
// Design:
//
//   - Read-write locks guard the index: one for the route structures and
//     one per TR-tree shard (see Engine). Queries hold every read side;
//     each shard's mutations are funnelled through that shard's writer
//     goroutine, and expiry sweeps through a barrier writer that holds
//     every shard, so queries observe a consistent snapshot and the
//     paper's algorithms need no internal locking.
//   - Transition writes (add / remove / expire) are queued and
//     coalesced: whatever has accumulated on a pipeline while its
//     previous batch was committing is applied under a single lock
//     acquisition and one epoch bump. Runs of same-kind ops hand their
//     tree mutations to the index as one sub-batch.
//   - Identical concurrent queries (same geometry, k, method,
//     semantics, time window) compute once and share the result.
//   - Standing queries are maintained incrementally by the existing
//     internal/monitor and their deltas fanned out to subscribers
//     (server-sent events at the HTTP layer).
//
// # Epoch semantics
//
// A vector epoch versions the index (epoch.go): one structural counter
// and one counter per TR-tree shard. Invariants:
//
//   - A shard's counter advances on every batch that changes the shard,
//     the structural counter on every route change, always under the
//     write lock, and never otherwise: a fixed vector identifies an
//     immutable logical snapshot.
//   - Cached query results carry the vector they were computed at. There
//     is one coherence policy: every commit appends its delta to its
//     shard's journal (journal.go), a stale hit replays the batches it
//     missed at read time (repair.go), and a route change, which shifts
//     every rank, purges the cache and the journals. In-flight dedup
//     keys include the vector, so a query never adopts a result computed
//     over an older snapshot.
//   - The vector is persisted in engine snapshots (snapshot.go) and
//     re-seeded through Options.InitialEpochs on warm starts, so the
//     version sequence observed by clients is monotonic across process
//     restarts serving the same data lineage.
//
// # Persistence
//
// Engine.WriteSnapshot serialises the index (R-tree arenas verbatim),
// the epoch and the bus network as an arena snapshot container under
// the read lock; ReadSnapshot reverses it for warm boots. Cold starts
// bulk-load from a dataset instead; the two paths produce engines that
// answer queries identically (asserted by the differential tests).
package serve
