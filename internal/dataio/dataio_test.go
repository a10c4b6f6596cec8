package dataio

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/model"
)

func testCity(t *testing.T) *gen.City {
	t.Helper()
	c, err := gen.Generate(gen.Config{
		Seed:  11,
		Width: 10, Height: 10,
		GridStep:       1.5,
		Jitter:         0.2,
		NumRoutes:      15,
		RouteMinStops:  3,
		RouteMaxStops:  8,
		NumTransitions: 100,
		HotspotCount:   4,
		HotspotSigma:   1,
		BackgroundFrac: 0.2,
		TimeSpan:       1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoutesCSVRoundTrip(t *testing.T) {
	c := testCity(t)
	var buf bytes.Buffer
	if err := WriteRoutesCSV(&buf, c.Dataset.Routes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRoutesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(c.Dataset.Routes) {
		t.Fatalf("got %d routes, want %d", len(got), len(c.Dataset.Routes))
	}
	for i, r := range got {
		want := c.Dataset.Routes[i]
		if r.ID != want.ID || len(r.Pts) != len(want.Pts) {
			t.Fatalf("route %d header mismatch", i)
		}
		for j := range r.Pts {
			if r.Stops[j] != want.Stops[j] {
				t.Fatalf("route %d stop %d mismatch", i, j)
			}
			if math.Abs(r.Pts[j].X-want.Pts[j].X) > 1e-5 || math.Abs(r.Pts[j].Y-want.Pts[j].Y) > 1e-5 {
				t.Fatalf("route %d point %d drifted: %v vs %v", i, j, r.Pts[j], want.Pts[j])
			}
		}
	}
}

func TestTransitionsCSVRoundTrip(t *testing.T) {
	c := testCity(t)
	var buf bytes.Buffer
	if err := WriteTransitionsCSV(&buf, c.Dataset.Transitions); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTransitionsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(c.Dataset.Transitions) {
		t.Fatalf("got %d transitions, want %d", len(got), len(c.Dataset.Transitions))
	}
	for i, tr := range got {
		want := c.Dataset.Transitions[i]
		if tr.ID != want.ID || tr.Time != want.Time {
			t.Fatalf("transition %d metadata mismatch", i)
		}
		if math.Abs(tr.O.X-want.O.X) > 1e-5 || math.Abs(tr.D.Y-want.D.Y) > 1e-5 {
			t.Fatalf("transition %d coordinates drifted", i)
		}
	}
}

func TestReadRoutesCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad fields":   "route_id,seq,stop_id,x_km,y_km\n1,0,0\n",
		"bad number":   "route_id,seq,stop_id,x_km,y_km\n1,0,zero,0.0,0.0\n",
		"out of order": "route_id,seq,stop_id,x_km,y_km\n1,1,0,0.0,0.0\n",
	}
	for name, in := range cases {
		if _, err := ReadRoutesCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadTransitionsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad fields": "transition_id,ox_km,oy_km,dx_km,dy_km,time\n1,0,0\n",
		"bad number": "transition_id,ox_km,oy_km,dx_km,dy_km,time\nx,0,0,0,0,0\n",
	}
	for name, in := range cases {
		if _, err := ReadTransitionsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := testCity(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, c.Dataset, c.Graph); err != nil {
		t.Fatal(err)
	}
	ds, g, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Routes) != len(c.Dataset.Routes) || len(ds.Transitions) != len(c.Dataset.Transitions) {
		t.Fatal("dataset size mismatch")
	}
	if g == nil {
		t.Fatal("network lost")
	}
	if g.NumVertices() != c.Graph.NumVertices() || g.NumEdges() != c.Graph.NumEdges() {
		t.Fatalf("network mismatch: %d/%d vertices, %d/%d edges",
			g.NumVertices(), c.Graph.NumVertices(), g.NumEdges(), c.Graph.NumEdges())
	}
	// Spot-check shortest distances agree (weights survived).
	d1, _ := c.Graph.Dijkstra(0)
	d2, _ := g.Dijkstra(0)
	for v := 0; v < g.NumVertices(); v += 13 {
		if math.Abs(d1[v]-d2[v]) > 1e-9 {
			t.Fatalf("distance to %d drifted: %v vs %v", v, d1[v], d2[v])
		}
	}
}

func TestSnapshotWithoutNetwork(t *testing.T) {
	ds := &model.Dataset{
		Transitions: []model.Transition{{ID: 1, O: geo.Pt(0, 0), D: geo.Pt(1, 1)}},
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ds, nil); err != nil {
		t.Fatal(err)
	}
	got, g, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g != nil {
		t.Error("unexpected network")
	}
	if len(got.Transitions) != 1 {
		t.Error("transitions lost")
	}
}

// TestSnapshotGarbage feeds ReadSnapshot input that is not a container —
// garbage, an empty file and a blob in the retired gob snapshot format —
// and wants an error that names the command that writes a current file.
func TestSnapshotGarbage(t *testing.T) {
	var blob bytes.Buffer
	legacy := struct {
		Version     int
		Routes      []model.Route
		Transitions []model.Transition
	}{Version: 1, Transitions: []model.Transition{{ID: 1, O: geo.Pt(0, 0), D: geo.Pt(1, 1)}}}
	if err := gob.NewEncoder(&blob).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{
		"garbage": []byte("not a snapshot"),
		"empty":   nil,
		"gob":     blob.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			_, _, err := ReadSnapshot(bytes.NewReader(in))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), "rknnt-gen -format snapshot") {
				t.Errorf("error %q does not say how to regenerate the file", err)
			}
		})
	}
}
