package serve

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestEngineSnapshotWarmStart(t *testing.T) {
	city, x := testCity(t)
	vertexOf := make(map[model.StopID]graph.VertexID)
	for i := 0; i < city.Graph.NumVertices(); i++ {
		vertexOf[model.StopID(i)] = graph.VertexID(i)
	}
	cold := New(x, Options{Network: city.Graph, VertexOf: vertexOf})
	defer cold.Close()

	// Advance the epoch with some committed writes before saving.
	if err := cold.AddTransition(model.Transition{ID: 999990, O: queryY0[0], D: queryY0[1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.RemoveTransition(999990); err != nil {
		t.Fatal(err)
	}
	savedEpoch := cold.Epoch()
	savedVec := cold.EpochVector()
	if savedEpoch == 0 {
		t.Fatal("expected a non-zero epoch after committed writes")
	}

	var buf bytes.Buffer
	if err := cold.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	lx, g, lv, epochs, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !epochs.Equal(savedVec) {
		t.Fatalf("snapshot epoch vector %+v, want %+v", epochs, savedVec)
	}
	if epochs.Sum() != savedEpoch {
		t.Fatalf("snapshot epoch %d, want %d", epochs.Sum(), savedEpoch)
	}
	// Files written before the scalar epoch was retired also carry a
	// "srvepoch" section holding the vector's sum; it must not shadow the
	// vector.
	secs, err := dataio.ParseSections(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var older bytes.Buffer
	sw := dataio.NewSectionWriter(&older)
	sw.Section("srvepoch", binary.LittleEndian.AppendUint64(nil, savedEpoch))
	for _, tag := range secs.Tags() {
		b, _ := secs.Lookup(tag)
		sw.Section(tag, b)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, v, err := ReadSnapshot(&older); err != nil || !v.Equal(savedVec) {
		t.Fatalf("container with srvepoch: vector %+v (err %v), want %+v", v, err, savedVec)
	}
	if g == nil || g.NumVertices() != city.Graph.NumVertices() {
		t.Fatal("network did not survive the snapshot")
	}
	if len(lv) != len(vertexOf) {
		t.Fatalf("vertex table has %d entries, want %d", len(lv), len(vertexOf))
	}

	warm := New(lx, Options{Network: g, VertexOf: lv, InitialEpochs: epochs})
	defer warm.Close()
	if warm.Epoch() != savedEpoch {
		t.Fatalf("warm engine epoch %d, want seeded %d", warm.Epoch(), savedEpoch)
	}
	if !warm.EpochVector().Equal(savedVec) {
		t.Fatalf("warm engine vector %+v, want seeded %+v", warm.EpochVector(), savedVec)
	}

	// The warm engine serves identical query results.
	rng := cityQueries(city, 12)
	for _, q := range rng {
		want, err := cold.RkNNT(q, core.Options{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.RkNNT(q, core.Options{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Transitions) != len(got.Transitions) {
			t.Fatalf("warm engine returned %d transitions, cold %d", len(got.Transitions), len(want.Transitions))
		}
		for i := range want.Transitions {
			if want.Transitions[i] != got.Transitions[i] {
				t.Fatalf("warm result[%d] = %d, want %d", i, got.Transitions[i], want.Transitions[i])
			}
		}
	}

	// The warm engine keeps accepting writes, advancing past the seed.
	if err := warm.AddTransition(model.Transition{ID: 999991, O: queryY0[0], D: queryY0[1]}); err != nil {
		t.Fatal(err)
	}
	if warm.Epoch() <= savedEpoch {
		t.Fatalf("warm epoch %d did not advance past seed %d", warm.Epoch(), savedEpoch)
	}
}

// cityQueries samples short query routes from the city's route points.
func cityQueries(city *gen.City, n int) [][]geo.Point {
	var out [][]geo.Point
	for i := 0; i < n && i < len(city.Dataset.Routes); i++ {
		r := city.Dataset.Routes[i]
		if len(r.Pts) >= 2 {
			out = append(out, r.Pts[:2])
		}
	}
	return out
}

func TestEngineSnapshotWithoutNetwork(t *testing.T) {
	e := New(twoRoutes(t, model.Transition{ID: 1, O: queryY0[0], D: queryY0[1]}), Options{})
	defer e.Close()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lx, g, lv, epochs, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g != nil || lv != nil {
		t.Fatal("network materialised out of nowhere")
	}
	if epochs.Sum() != 0 {
		t.Fatalf("epoch %d, want 0", epochs.Sum())
	}
	if lx.NumTransitions() != 1 {
		t.Fatalf("loaded %d transitions, want 1", lx.NumTransitions())
	}
}
