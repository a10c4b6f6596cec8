package serve

// Incremental checkpoints. A full checkpoint rewrites the whole engine
// snapshot; an incremental one writes a delta container holding only
// what moved since the previous checkpoint, decided by diffing epoch
// vectors (epoch.go): a shard arena is rewritten iff its shard counter
// advanced, the routes table and RR-tree iff the structural counter
// advanced, and the small whole-index tables (idxmeta, transitions,
// shard assignment, expiry heap) whenever anything moved. Deltas chain
// onto the base file via dataio's ckptmeta linkage; see
// internal/dataio/chain.go for the on-disk rules and crash semantics.
//
// All checkpoint requests — full, incremental, and the legacy
// WriteSnapshotFile path — serialize on one mutex: two concurrent
// snapshot POSTs used to race their renames onto the same path. Every
// file reaches disk through dataio.WriteFileAtomic (fsync file, rename,
// fsync directory), so a SIGKILL at any instant leaves a loadable chain.

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dataio"
	"repro/internal/index"
)

// maxDeltaChain caps the chain length before Checkpoint forces a full
// rewrite: it bounds warm-boot file count and reclaims the space dead
// delta sections accumulate.
const maxDeltaChain = 64

// ckptState is the writer's view of the chain at ckpt.path. valid means
// lastVec/seq/CRCs describe durable on-disk state that the next
// incremental checkpoint may extend.
type ckptState struct {
	mu      sync.Mutex
	path    string
	seq     uint64
	baseCRC uint32
	tipCRC  uint32
	lastVec EpochVec
	valid   bool
}

// CheckpointResult describes a completed checkpoint.
type CheckpointResult struct {
	Path        string `json:"path"`
	Incremental bool   `json:"incremental"`
	// Seq is the chain position written: 0 for a full snapshot, the
	// delta sequence number otherwise.
	Seq   uint64 `json:"seq"`
	Bytes int64  `json:"bytes"`
	// ShardsWritten counts shard arenas serialized (all of them for a
	// full checkpoint). Structural reports whether the routes/RR-tree
	// sections were included.
	ShardsWritten int  `json:"shards_written"`
	Structural    bool `json:"structural"`
	// NoOp is set when an incremental checkpoint found the epoch vector
	// unchanged and wrote nothing: the chain already captures the state.
	NoOp bool `json:"no_op,omitempty"`
}

// CheckpointSeed carries a warm boot's chain position so the first
// post-boot checkpoint can be incremental (see SnapshotFile.CheckpointSeed).
type CheckpointSeed struct {
	Path    string
	Seq     uint64
	BaseCRC uint32
	TipCRC  uint32
	Vec     EpochVec
}

// SeedCheckpoint installs a warm boot's chain position as the engine's
// checkpoint state. It only takes effect while the engine still is at
// the seed's epoch vector — call it right after New, before writes are
// accepted; once a write commits the seed is stale and is ignored (the
// next checkpoint is then a full one, which is always correct).
func (e *Engine) SeedCheckpoint(s CheckpointSeed) bool {
	if s.Path == "" || !e.vecIsCurrent(s.Vec) {
		return false
	}
	e.ckpt.mu.Lock()
	defer e.ckpt.mu.Unlock()
	e.ckpt.path = s.Path
	e.ckpt.seq = s.Seq
	e.ckpt.baseCRC = s.BaseCRC
	e.ckpt.tipCRC = s.TipCRC
	e.ckpt.lastVec = s.Vec.Clone()
	e.ckpt.valid = true
	return true
}

// Checkpoint persists the engine state at path. With incremental set it
// extends the existing chain with a delta when it can, silently falling
// back to a full snapshot when it cannot (no prior checkpoint at this
// path, chain at maxDeltaChain, or an earlier write failure of unknown
// durability). Concurrent calls serialize; each sees the previous one's
// completed state.
func (e *Engine) Checkpoint(path string, incremental bool) (CheckpointResult, error) {
	e.ckpt.mu.Lock()
	defer e.ckpt.mu.Unlock()
	if incremental && e.ckpt.valid && e.ckpt.path == path && e.ckpt.seq < maxDeltaChain {
		return e.checkpointDelta(path)
	}
	return e.checkpointFull(path)
}

// checkpointFull writes a complete snapshot, resets the chain, and
// removes the previous chain's delta files. Caller holds ckpt.mu.
func (e *Engine) checkpointFull(path string) (CheckpointResult, error) {
	start := time.Now()
	var vec EpochVec
	var crc uint32
	size, err := dataio.WriteFileAtomic(path, func(w io.Writer) error {
		var err error
		vec, crc, err = e.writeSnapshotTo(w)
		return err
	})
	if err != nil {
		e.ckpt.valid = false
		return CheckpointResult{}, err
	}
	e.ckpt.path = path
	e.ckpt.seq = 0
	e.ckpt.baseCRC = crc
	e.ckpt.tipCRC = crc
	e.ckpt.lastVec = vec
	e.ckpt.valid = true
	removeStaleDeltas(path)
	shards := len(vec.Shards)
	e.mx.ckptFull.RecordDuration(time.Since(start))
	e.mx.ckptTotalFull.Inc()
	e.mx.ckptBytes.Add(uint64(size))
	e.mx.ckptShards.Add(uint64(shards))
	return CheckpointResult{Path: path, Seq: 0, Bytes: size, ShardsWritten: shards, Structural: true}, nil
}

// checkpointDelta writes the next delta of the chain at path. Caller
// holds ckpt.mu and has verified the chain state is extendable.
func (e *Engine) checkpointDelta(path string) (CheckpointResult, error) {
	start := time.Now()
	seq := e.ckpt.seq + 1
	meta := dataio.CheckpointMeta{Seq: seq, BaseCRC: e.ckpt.baseCRC, ParentCRC: e.ckpt.tipCRC}
	last := e.ckpt.lastVec

	// Nothing moved since the chain tip: the chain already captures the
	// state, skip the write. (A commit racing this check is captured by
	// the next checkpoint — same semantics as it landing just after one.)
	if e.vecIsCurrent(last) {
		e.mx.ckptNoop.Inc()
		return CheckpointResult{Path: path, Incremental: true, Seq: e.ckpt.seq, NoOp: true}, nil
	}

	var vec EpochVec
	var crc uint32
	var structural bool
	var shardsWritten int
	size, err := dataio.WriteFileAtomic(dataio.DeltaPath(path, seq), func(w io.Writer) error {
		e.rlockAll()
		defer e.runlockAll()
		vec = e.epochVecQuiescent()
		structural = vec.Structural != last.Structural
		changed := func(s int) bool {
			return s >= len(last.Shards) || vec.Shards[s] != last.Shards[s]
		}
		sw := dataio.NewSectionWriter(w)
		sw.Section(dataio.SecCheckpoint, dataio.MarshalCheckpointMeta(meta))
		sw.Section(SecEpochVec, vec.appendBytes(nil))
		if err := index.AppendDeltaSections(sw, e.idx, structural, changed); err != nil {
			return err
		}
		for s := range vec.Shards {
			if changed(s) {
				shardsWritten++
			}
		}
		if err := sw.Close(); err != nil {
			return err
		}
		crc = sw.TableCRC()
		return nil
	})
	if err != nil {
		// The delta file's durability is unknown; poison the chain so
		// the next checkpoint rewrites from scratch.
		e.ckpt.valid = false
		return CheckpointResult{}, err
	}
	e.ckpt.seq = seq
	e.ckpt.tipCRC = crc
	e.ckpt.lastVec = vec
	e.mx.ckptDelta.RecordDuration(time.Since(start))
	e.mx.ckptTotalDelta.Inc()
	e.mx.ckptBytes.Add(uint64(size))
	e.mx.ckptShards.Add(uint64(shardsWritten))
	return CheckpointResult{
		Path: path, Incremental: true, Seq: seq, Bytes: size,
		ShardsWritten: shardsWritten, Structural: structural,
	}, nil
}

// CheckpointSeq returns the current chain length at the last checkpoint
// path (0: base only or no checkpoint yet). Metrics helper.
func (e *Engine) CheckpointSeq() uint64 {
	e.ckpt.mu.Lock()
	defer e.ckpt.mu.Unlock()
	return e.ckpt.seq
}

// removeStaleDeltas best-effort deletes the delta files of the chain
// previously based at path: a fresh full snapshot replaced the base, so
// they can never load again (their baseCRC no longer matches). Failures
// are ignored — the loader skips stale deltas by construction.
func removeStaleDeltas(path string) {
	removed := false
	for seq := uint64(1); os.Remove(dataio.DeltaPath(path, seq)) == nil; seq++ {
		removed = true
	}
	if removed {
		dataio.SyncDir(filepath.Dir(path))
	}
}
