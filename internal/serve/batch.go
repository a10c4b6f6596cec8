package serve

import (
	"errors"
	"time"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// ErrClosed is returned for writes submitted after Close.
var ErrClosed = errors.New("serve: engine closed")

type opKind int

const (
	opAddTransition opKind = iota
	opRemoveTransition
	opExpire
)

// writeOp is one queued mutation. A pipeline goroutine coalesces queued
// ops and applies them under a single lock acquisition; done is
// signalled with the per-op outcome once the batch commits.
type writeOp struct {
	kind   opKind
	t      model.Transition // opAddTransition
	id     model.TransitionID
	cutoff int64
	enq    time.Time // submission time, for the queue-wait histogram
	done   chan opResult
}

type opResult struct {
	err     error
	existed bool // opRemoveTransition: the transition was present
	n       int  // opExpire: transitions removed
}

// shardPipeline is one shard's write path: a queue and the single
// goroutine that drains it. Transition ops route to their shard's
// pipeline (see pipelineFor), so two shards' batches commit
// concurrently under disjoint locks. shard == -1 is the barrier
// pipeline, whose commits span every shard: expiry sweeps.
type shardPipeline struct {
	e          *Engine
	shard      int // -1: barrier
	ch         chan writeOp
	commitHist *obs.Histogram
	batchBuf   []writeOp
}

// run is the pipeline's sole consumer. It drains whatever has
// accumulated since the last batch and applies it in one critical
// section, so N concurrent writers to one shard cost one lock
// acquisition and one epoch bump instead of N.
func (p *shardPipeline) run() {
	e := p.e
	defer e.wg.Done()
	for {
		var first writeOp
		select {
		case first = <-p.ch:
		case <-e.quit:
			p.quiesce()
			return
		}
		batch := append(p.batchBuf[:0], first)
		for len(batch) < e.opts.MaxBatch {
			select {
			case op := <-p.ch:
				batch = append(batch, op)
			default:
				goto apply
			}
		}
	apply:
		p.batchBuf = batch
		if p.shard < 0 {
			p.applyBarrier(batch)
		} else {
			p.applyShard(batch)
		}
	}
}

// quiesce fails everything still queued at Close time with ErrClosed.
// Close has already shut out new submitters, so an empty queue stays
// empty.
func (p *shardPipeline) quiesce() {
	for {
		select {
		case op := <-p.ch:
			op.done <- opResult{err: ErrClosed}
		default:
			return
		}
	}
}

// applyShard commits a coalesced batch on this pipeline's shard under
// (structMu.R, shardMu[shard].W): queries are held out of this shard
// only, and other shards' pipelines commit concurrently. Consecutive
// same-kind runs become one index sub-batch. The journal append and the
// standing-delta broadcast happen before the locks release, so deltas
// reach subscribers in commit order and a reader that observes the new
// epoch can always replay the journal entry behind it.
func (p *shardPipeline) applyShard(batch []writeOp) {
	e, s := p.e, p.shard
	start := time.Now()
	for i := range batch {
		e.mx.queueWait.RecordDuration(start.Sub(batch[i].enq))
	}
	results := make([]opResult, len(batch))
	var events []monitor.Event
	var jAdded, jRemoved []model.TransitionID
	var memo radiusMemo // radii the index stored for jAdded, at the plane's k

	e.structMu.RLock()
	e.shardMu[s].Lock()
	for i := 0; i < len(batch); {
		j := i
		for j < len(batch) && batch[j].kind == batch[i].kind {
			j++
		}
		run := batch[i:j]
		switch batch[i].kind {
		case opAddTransition:
			ts := make([]model.Transition, len(run))
			for k := range run {
				ts[k] = run[k].t
			}
			errs, radii := e.idx.AddBatchToShard(s, ts)
			events = append(events, e.mon.ApplyAdds(ts, errs)...)
			for k := range run {
				results[i+k] = opResult{err: errs[k]}
				if errs[k] == nil {
					jAdded = append(jAdded, ts[k].ID)
					memo.record(&ts[k], radii, k)
				}
			}
		case opRemoveTransition:
			ids := make([]model.TransitionID, len(run))
			for k := range run {
				ids[k] = run[k].id
			}
			removed := e.idx.RemoveBatchFromShard(s, ids)
			events = append(events, e.mon.ApplyRemoves(ids, removed)...)
			for k := range run {
				results[i+k] = opResult{existed: removed[k]}
				if removed[k] {
					jRemoved = append(jRemoved, ids[k])
				}
			}
		}
		i = j
	}
	if len(jAdded)+len(jRemoved) > 0 {
		newEpoch := e.epochShard[s].Add(1)
		e.journals[s].append(journalBatch{epoch: newEpoch, added: jAdded, removed: jRemoved, radii: &memo})
	}
	e.mx.radiusProbes.Add(uint64(2 * len(jAdded) * len(memo.byK)))
	e.broadcast(events)
	e.shardMu[s].Unlock()
	e.structMu.RUnlock()

	d := time.Since(start)
	e.mx.commit.RecordDuration(d)
	p.commitHist.RecordDuration(d)
	e.mx.batches.Inc()
	e.mx.batchedOps.Add(uint64(len(batch)))
	for i := range batch {
		batch[i].done <- results[i]
	}
}

// applyBarrier commits a coalesced batch of expiry sweeps under
// (structMu.R, every shardMu.W in ascending order): the whole index is
// quiesced, as a sweep may touch any shard. Every shard a sweep changed
// advances its epoch and journals its removals, exactly as a shard
// pipeline's commit would.
func (p *shardPipeline) applyBarrier(batch []writeOp) {
	e := p.e
	start := time.Now()
	for i := range batch {
		e.mx.queueWait.RecordDuration(start.Sub(batch[i].enq))
	}
	shards := len(e.shardMu)
	results := make([]opResult, len(batch))
	var events []monitor.Event
	jRemoved := make([][]model.TransitionID, shards)

	e.structMu.RLock()
	for s := 0; s < shards; s++ {
		e.shardMu[s].Lock()
	}
	for i, op := range batch {
		victims := e.idx.DrainTimedBeforeLocked(op.cutoff)
		removed, perShard := e.idx.RemoveBatchAnyShard(victims)
		events = append(events, e.mon.ApplyRemoves(victims, removed)...)
		results[i] = opResult{n: len(victims)}
		for s, list := range perShard {
			jRemoved[s] = append(jRemoved[s], list...)
		}
	}
	for s, list := range jRemoved {
		if len(list) > 0 {
			e.journals[s].append(journalBatch{epoch: e.epochShard[s].Add(1), removed: list})
		}
	}
	e.broadcast(events)
	for s := shards - 1; s >= 0; s-- {
		e.shardMu[s].Unlock()
	}
	e.structMu.RUnlock()

	d := time.Since(start)
	e.mx.commit.RecordDuration(d)
	p.commitHist.RecordDuration(d)
	e.mx.batches.Inc()
	e.mx.batchedOps.Add(uint64(len(batch)))
	for i := range batch {
		batch[i].done <- results[i]
	}
}

// pipelineFor routes an op to its owning pipeline: adds and removes go
// to the ID's home shard, which is where the index keeps it; expiry,
// which spans shards, goes to the barrier. Routing by ID keeps one ID's
// ops on one queue, preserving their submission order.
func (e *Engine) pipelineFor(op *writeOp) *shardPipeline {
	switch op.kind {
	case opAddTransition:
		return e.pipes[e.idx.HomeShard(op.t.ID)]
	case opRemoveTransition:
		return e.pipes[e.idx.HomeShard(op.id)]
	default:
		return e.barrier
	}
}

// submit enqueues one op on its pipeline and waits for its batch to
// commit. The close flag is checked under closeMu so that no op can be
// enqueued after Close has cut the pipelines loose: Close takes the
// write side of closeMu before signalling quit, which waits out any
// in-flight send.
func (e *Engine) submit(op writeOp) opResult {
	op.done = make(chan opResult, 1)
	op.enq = time.Now()
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return opResult{err: ErrClosed}
	}
	e.pipelineFor(&op).ch <- op
	e.closeMu.RUnlock()
	return <-op.done
}

// submitMany enqueues every op — each on its own shard's pipeline —
// before waiting on any of them, so one caller's batch coalesces into
// as few write batches per shard as possible instead of paying one
// commit per op.
func (e *Engine) submitMany(n int, mk func(i int) writeOp) []opResult {
	results := make([]opResult, n)
	done := make([]chan opResult, n)
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		for i := range results {
			results[i] = opResult{err: ErrClosed}
		}
		return results
	}
	enq := time.Now()
	for i := 0; i < n; i++ {
		op := mk(i)
		op.done = make(chan opResult, 1)
		op.enq = enq
		done[i] = op.done
		e.pipelineFor(&op).ch <- op
	}
	e.closeMu.RUnlock()
	for i := range done {
		results[i] = <-done[i]
	}
	return results
}
