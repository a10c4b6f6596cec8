package serve

// Golden checkpoint-chain fixtures. testdata/ holds a base snapshot and
// a two-delta chain produced by a fixed, deterministic op script, plus
// the canonical full snapshot of the final state. The test proves two
// compatibility properties against those stored bytes:
//
//   1. Writer stability: replaying the script today produces the golden
//      files byte-for-byte. A legitimate format change breaks this on
//      purpose — regenerate with `go test -run TestGoldenChain -update`
//      and review the diff as part of the format change.
//   2. Reader compatibility: loading the stored chain (heap and mmap)
//      and re-saving yields exactly the stored full snapshot, i.e.
//      current code still reads old bytes into canonical state.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataio"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden checkpoint-chain fixtures in testdata/")

const goldenBase = "golden.arena"

var goldenFiles = []string{
	goldenBase,
	goldenBase + ".delta.000001",
	goldenBase + ".delta.000002",
	"golden.full",
}

// buildGoldenChain replays the fixed op script into dir and returns the
// path of the chain base. Engine writes are synchronous (one op per
// write batch), so the epoch vectors — and therefore every byte of the
// chain — are deterministic. The shard count is pinned: the default
// follows GOMAXPROCS, and the committed bytes hold one shard.
func buildGoldenChain(t *testing.T, dir string) string {
	t.Helper()
	city, _ := smallCity(t)
	x, err := index.BuildOpts(city.Dataset, index.Options{TRShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	vertexOf := make(map[model.StopID]graph.VertexID)
	for i := 0; i < city.Graph.NumVertices(); i++ {
		vertexOf[model.StopID(i)] = graph.VertexID(i)
	}
	e := New(x, Options{Network: city.Graph, VertexOf: vertexOf})
	defer e.Close()

	path := filepath.Join(dir, goldenBase)
	if _, err := e.Checkpoint(path, false); err != nil {
		t.Fatal(err)
	}

	// Delta 1: pure transition churn (two adds, one remove).
	for _, tr := range []model.Transition{
		{ID: 9001, O: geo.Pt(1.5, 2.5), D: geo.Pt(3.5, 4.5), Time: 777},
		{ID: 9002, O: geo.Pt(2, 2), D: geo.Pt(6, 6)},
	} {
		if err := e.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RemoveTransition(9002); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(path, true); err != nil {
		t.Fatal(err)
	}

	// Delta 2: structural churn (a new route) plus one more transition.
	if err := e.AddRoute(model.Route{
		ID:    9100,
		Stops: []model.StopID{9200, 9201},
		Pts:   []geo.Point{geo.Pt(0.25, 0.25), geo.Pt(11.75, 11.75)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTransition(model.Transition{ID: 9003, O: geo.Pt(4, 1), D: geo.Pt(1, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(path, true); err != nil {
		t.Fatal(err)
	}

	// Canonical full snapshot of the final state.
	var full bytes.Buffer
	if err := e.WriteSnapshot(&full); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.full"), full.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenChain(t *testing.T) {
	dir := t.TempDir()
	buildGoldenChain(t, dir)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range goldenFiles {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden fixtures rewritten")
		return
	}

	// 1. Writer stability: today's bytes == stored bytes.
	for _, f := range goldenFiles {
		want, err := os.ReadFile(filepath.Join("testdata", f))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: generated bytes differ from golden (%d vs %d bytes); if the format change is intentional, regenerate with -update",
				f, len(got), len(want))
		}
	}

	// 2. Reader compatibility: stored chain -> engine -> save is
	// byte-identical to the stored full snapshot, mapped or not.
	want, err := os.ReadFile(filepath.Join("testdata", "golden.full"))
	if err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{false, true} {
		sf, err := OpenSnapshotFile(filepath.Join("testdata", goldenBase), SnapshotLoadOptions{Mmap: useMmap})
		if err != nil {
			t.Fatalf("load golden chain (mmap=%v): %v", useMmap, err)
		}
		if len(sf.Files()) != 3 {
			t.Fatalf("golden chain resolved to %d files, want 3", len(sf.Files()))
		}
		e := New(sf.Index, Options{Network: sf.Network, VertexOf: sf.VertexOf, InitialEpochs: sf.Epochs})
		var got bytes.Buffer
		if err := e.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		e.Close()
		sf.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("mmap=%v: golden chain does not round-trip to golden.full (%d vs %d bytes)",
				useMmap, got.Len(), len(want))
		}
	}
}

// TestGoldenChainScalarEpoch loads testdata/srvepoch/, the golden chain
// as the writer produced it before the scalar epoch was retired: every
// file also carries a "srvepoch" section, as every checkpoint written
// before then does. Those bytes are frozen (-update does not touch
// them), and they must load to exactly the state of the current chain:
// the same epoch vector, and a re-save byte-identical to golden.full.
func TestGoldenChainScalarEpoch(t *testing.T) {
	legacy := filepath.Join("testdata", "srvepoch", goldenBase)
	if !hasTag(sectionTags(t, legacy), "srvepoch") {
		t.Fatalf("%s carries no srvepoch section", legacy)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.full"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := OpenSnapshotFile(filepath.Join("testdata", goldenBase), SnapshotLoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantVec := cur.Epochs.Clone()
	cur.Close()

	for _, useMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", useMmap), func(t *testing.T) {
			sf, err := OpenSnapshotFile(legacy, SnapshotLoadOptions{Mmap: useMmap})
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			if len(sf.Files()) != 3 {
				t.Fatalf("chain resolved to %d files, want 3", len(sf.Files()))
			}
			if !sf.Epochs.Equal(wantVec) {
				t.Fatalf("epoch vector %+v, want %+v", sf.Epochs, wantVec)
			}
			e := New(sf.Index, Options{Network: sf.Network, VertexOf: sf.VertexOf, InitialEpochs: sf.Epochs})
			defer e.Close()
			var got bytes.Buffer
			if err := e.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("re-save differs from golden.full (%d vs %d bytes)", got.Len(), len(want))
			}
		})
	}
}

// sectionTags returns the tag list of a container file in table order.
func sectionTags(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := dataio.ParseSections(b)
	if err != nil {
		t.Fatal(err)
	}
	var tags []string
	for _, r := range secs.Ranges() {
		tags = append(tags, r.Tag)
	}
	return tags
}

func hasTag(tags []string, want string) bool {
	for _, tag := range tags {
		if tag == want {
			return true
		}
	}
	return false
}

// TestCheckpointDeltaGranularity pins the incremental-checkpoint
// contract: a transition-only delta carries exactly the shards whose
// epoch advanced and no structural sections; a route change flips the
// delta to structural (routes + RR-tree included); a warm-booted engine
// continues the chain at seq+1 instead of restarting it.
func TestCheckpointDeltaGranularity(t *testing.T) {
	_, x := smallCity(t)
	e := New(x, Options{})
	path := filepath.Join(t.TempDir(), "city.arena")
	if _, err := e.Checkpoint(path, false); err != nil {
		t.Fatal(err)
	}

	// One transition touches at most two shards (its O and D endpoints).
	if err := e.AddTransition(model.Transition{ID: 9001, O: geo.Pt(1, 1), D: geo.Pt(2, 2)}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Checkpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || res.Seq != 1 || res.Structural || res.NoOp {
		t.Fatalf("transition delta: %+v", res)
	}
	if res.ShardsWritten < 1 || res.ShardsWritten > 2 {
		t.Fatalf("transition delta rewrote %d shards, want 1 or 2", res.ShardsWritten)
	}
	tags := sectionTags(t, dataio.DeltaPath(path, 1))
	if hasTag(tags, "rrtree") || hasTag(tags, dataio.SecRoutes) {
		t.Fatalf("non-structural delta carries structural sections: %v", tags)
	}
	if !hasTag(tags, dataio.SecCheckpoint) {
		t.Fatalf("delta has no %s section: %v", dataio.SecCheckpoint, tags)
	}
	nShards := 0
	for _, tag := range tags {
		if len(tag) == 7 && tag[:4] == "trsh" {
			nShards++
		}
	}
	if nShards != res.ShardsWritten {
		t.Fatalf("delta holds %d shard sections, result claims %d", nShards, res.ShardsWritten)
	}

	// An unchanged engine produces a no-op, not an empty delta file.
	res, err = e.Checkpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoOp || res.Seq != 1 {
		t.Fatalf("no-op delta: %+v", res)
	}
	if _, err := os.Stat(dataio.DeltaPath(path, 2)); err == nil {
		t.Fatal("no-op checkpoint left a delta file behind")
	}

	// A route change makes the next delta structural.
	if err := e.AddRoute(model.Route{
		ID:    9100,
		Stops: []model.StopID{9200, 9201},
		Pts:   []geo.Point{geo.Pt(0, 0), geo.Pt(9, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Checkpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || res.Seq != 2 || !res.Structural {
		t.Fatalf("structural delta: %+v", res)
	}
	tags = sectionTags(t, dataio.DeltaPath(path, 2))
	if !hasTag(tags, "rrtree") || !hasTag(tags, dataio.SecRoutes) {
		t.Fatalf("structural delta misses structural sections: %v", tags)
	}
	e.Close()

	// Warm boot continues the chain rather than restarting it.
	sf, err := OpenSnapshotFile(path, SnapshotLoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	e2 := New(sf.Index, Options{InitialEpochs: sf.Epochs})
	defer e2.Close()
	if !e2.SeedCheckpoint(sf.CheckpointSeed()) {
		t.Fatal("warm-booted engine rejected the checkpoint seed")
	}
	if err := e2.AddTransition(model.Transition{ID: 9004, O: geo.Pt(3, 3), D: geo.Pt(5, 5)}); err != nil {
		t.Fatal(err)
	}
	res, err = e2.Checkpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || res.Seq != 3 {
		t.Fatalf("warm-boot delta should continue at seq 3: %+v", res)
	}
}
