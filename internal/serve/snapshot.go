package serve

// Engine snapshots: persistence glue between the serving layer and the
// arena snapshot container (internal/dataio). An engine snapshot is an
// index snapshot (internal/index) plus two serving-layer sections: the
// epoch at save time, so a warm-started engine resumes a monotonic
// version sequence, and the bus network with its stop-to-vertex table,
// so planning survives a restart.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
)

// SecEpochVec is the section carrying the full epoch vector: the
// structural counter (u64), the shard count (u32), then one u64 per
// shard. Warm boots seed Options.InitialEpochs from it so cached
// results and version vectors survive a restart exactly.
const SecEpochVec = "srvepocv"

// WriteSnapshot serialises the engine's index, epoch vector and network
// as an arena snapshot container. It runs under the engine read locks:
// concurrent queries proceed, commits wait for the serialization to
// finish (the arenas are dumped verbatim, so this is a memory copy, not
// a rebuild), and the stored vector is exact.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	_, _, err := e.writeSnapshotTo(w)
	return err
}

// writeSnapshotTo is WriteSnapshot returning what the checkpointer
// needs: the exact epoch vector the snapshot captured and the written
// container's section-table CRC (the chain identity of the file).
func (e *Engine) writeSnapshotTo(w io.Writer) (EpochVec, uint32, error) {
	start := time.Now()
	defer func() { e.mx.snapshotSave.RecordDuration(time.Since(start)) }()
	e.rlockAll()
	defer e.runlockAll()
	vec := e.epochVecQuiescent()
	sw := dataio.NewSectionWriter(w)
	sw.Section(SecEpochVec, vec.appendBytes(nil))
	if err := index.AppendSnapshotSections(sw, e.idx); err != nil {
		return vec, 0, err
	}
	if e.opts.Network != nil {
		sw.Section(dataio.SecNetwork, dataio.MarshalNetwork(e.opts.Network, e.opts.VertexOf))
	}
	if err := sw.Close(); err != nil {
		return vec, 0, err
	}
	return vec, sw.TableCRC(), nil
}

// WriteSnapshotFile saves a full engine snapshot at path and returns
// its size. It is a full checkpoint: crash-safe replacement (fsync file
// and directory around an atomic rename, see dataio.WriteFileAtomic),
// serialized against concurrent checkpoint requests, and it resets the
// engine's incremental-checkpoint chain at path. Used by the
// rknnt-serve -save-index flag and the POST /v1/snapshot endpoint.
func (e *Engine) WriteSnapshotFile(path string) (int64, error) {
	res, err := e.Checkpoint(path, false)
	return res.Bytes, err
}

// ReadSnapshot loads an engine snapshot (or any container with index
// sections): the reassembled index, the network and stop-to-vertex table
// (nil if none was stored), and the epoch vector to seed a new engine
// with (zero if the snapshot carries no serving metadata). Pass the
// vector as Options.InitialEpochs so clients that cached results
// against the old process observe a version no older than what they
// saw. A scalar "srvepoch" section, which older files carry, is ignored:
// a file with no "srvepocv" section boots at the zero vector.
func ReadSnapshot(r io.Reader) (*index.Index, *graph.Graph, map[model.StopID]graph.VertexID, EpochVec, error) {
	secs, err := dataio.ReadSections(r)
	if err != nil {
		return nil, nil, nil, EpochVec{}, err
	}
	return snapshotStateFromSections(secs, index.LoadOptions{})
}

// snapshotStateFromSections reassembles the engine-boot state from a
// parsed container (monolithic snapshot or merged checkpoint chain).
func snapshotStateFromSections(secs *dataio.Sections, lo index.LoadOptions) (*index.Index, *graph.Graph, map[model.StopID]graph.VertexID, EpochVec, error) {
	x, err := index.SnapshotFromSectionsOpts(secs, lo)
	if err != nil {
		return nil, nil, nil, EpochVec{}, err
	}
	var vec EpochVec
	if vb, ok := secs.Lookup(SecEpochVec); ok {
		v, ok := epochVecFromBytes(vb)
		if !ok {
			return nil, nil, nil, EpochVec{}, fmt.Errorf("serve: malformed %q section (%d bytes)", SecEpochVec, len(vb))
		}
		vec = v
	}
	var g *graph.Graph
	var vertexOf map[model.StopID]graph.VertexID
	if nb, ok := secs.Lookup(dataio.SecNetwork); ok {
		if g, vertexOf, err = dataio.UnmarshalNetwork(nb); err != nil {
			return nil, nil, nil, EpochVec{}, err
		}
	}
	return x, g, vertexOf, vec, nil
}

// SnapshotLoadOptions tunes OpenSnapshotFile.
type SnapshotLoadOptions struct {
	// Mmap memory-maps the chain's containers and view-loads the arenas
	// (zero-copy boot; dataset may exceed RAM). Off, every file is read
	// onto the heap — chain handling is identical either way.
	Mmap bool
}

// SnapshotFile is an opened on-disk snapshot (a full container plus any
// incremental-checkpoint deltas chained onto it) with the engine state
// reassembled from it. With Mmap the Index's arenas alias the open
// files: keep the SnapshotFile alive as long as the Index (and any
// Engine wrapping it) serves, and Close it after they quiesce.
type SnapshotFile struct {
	Index    *index.Index
	Network  *graph.Graph
	VertexOf map[model.StopID]graph.VertexID
	Epochs   EpochVec

	path  string
	chain *dataio.Chain
}

// OpenSnapshotFile opens the checkpoint chain based at path and
// reassembles the engine state it holds.
func OpenSnapshotFile(path string, o SnapshotLoadOptions) (*SnapshotFile, error) {
	ch, err := dataio.OpenChain(path, o.Mmap)
	if err != nil {
		return nil, err
	}
	x, g, vertexOf, vec, err := snapshotStateFromSections(ch.Secs, index.LoadOptions{View: o.Mmap})
	if err != nil {
		ch.Close()
		return nil, err
	}
	return &SnapshotFile{Index: x, Network: g, VertexOf: vertexOf, Epochs: vec, path: path, chain: ch}, nil
}

// Files lists the chain's on-disk files in load order, base first.
func (f *SnapshotFile) Files() []string { return f.chain.Files }

// Mapped reports whether every chain file is OS-memory-mapped.
func (f *SnapshotFile) Mapped() bool { return f.chain.Mapped }

// Size returns the chain's total on-disk bytes.
func (f *SnapshotFile) Size() int64 { return f.chain.Size() }

// CheckpointSeed returns the seed that lets an engine booted from this
// file continue its checkpoint chain incrementally instead of starting
// with a full rewrite. Pass it to Engine.SeedCheckpoint right after New.
func (f *SnapshotFile) CheckpointSeed() CheckpointSeed {
	return CheckpointSeed{
		Path:    f.path,
		Seq:     f.chain.Seq,
		BaseCRC: f.chain.BaseCRC,
		TipCRC:  f.chain.TipCRC,
		Vec:     f.Epochs.Clone(),
	}
}

// Close releases the mapped files. Only call it after the Index (and
// any Engine serving it) can no longer be touched.
func (f *SnapshotFile) Close() error { return f.chain.Close() }
