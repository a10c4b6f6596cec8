package rtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
)

// TestArenaSaveLoadSave drives randomized insert/delete/bulk-load
// workloads (in the spirit of diff_test.go) and asserts the persistence
// contract at checkpoints: the serialised arena reloads into a tree that
// passes the invariant checks and answers queries identically, and
// re-serialising the loaded tree reproduces the bytes exactly.
func TestArenaSaveLoadSave(t *testing.T) {
	seeds := []int64{11, 22, 33}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		tr := New(WithIDAggregate())
		var live []Entry
		steps := 1200
		if testing.Short() {
			steps = 300
		}
		for step := 0; step < steps; step++ {
			switch k := rng.Intn(100); {
			case k < 55:
				e := Entry{
					Pt:  geo.Pt(float64(rng.Intn(50)), float64(rng.Intn(50))),
					ID:  int32(rng.Intn(30)),
					Aux: int32(rng.Intn(4)),
				}
				tr.Insert(e)
				live = append(live, e)
			case k < 80 && len(live) > 0:
				i := rng.Intn(len(live))
				if !tr.Delete(live[i]) {
					t.Fatalf("seed %d step %d: delete failed", seed, step)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				tr = BulkLoad(append([]Entry(nil), live...), WithIDAggregate())
			}
			if step%149 == 0 {
				assertArenaRoundTrip(t, tr)
			}
		}
		assertArenaRoundTrip(t, tr)
	}
}

func assertArenaRoundTrip(t *testing.T, tr *Tree) {
	t.Helper()
	blob := tr.AppendArena(nil)
	loaded, err := TreeFromArena(blob)
	if err != nil {
		t.Fatalf("TreeFromArena: %v", err)
	}
	if err := loaded.checkInvariants(false); err != nil {
		t.Fatalf("loaded tree invariants: %v", err)
	}
	if loaded.Len() != tr.Len() || loaded.Generation() != tr.Generation() {
		t.Fatalf("loaded Len/Generation = %d/%d, want %d/%d",
			loaded.Len(), loaded.Generation(), tr.Len(), tr.Generation())
	}
	// Save→load→save byte identity: the arena is restored verbatim.
	if again := loaded.AppendArena(nil); !bytes.Equal(blob, again) {
		t.Fatalf("save→load→save not byte-identical (%d vs %d bytes)", len(blob), len(again))
	}
	// The loaded tree answers queries identically.
	rect := geo.Rect{Min: geo.Pt(10, 10), Max: geo.Pt(35, 35)}
	want := map[Entry]int{}
	tr.Search(rect, func(e Entry) bool { want[e]++; return true })
	got := map[Entry]int{}
	loaded.Search(rect, func(e Entry) bool { got[e]++; return true })
	if len(got) != len(want) {
		t.Fatalf("loaded range result has %d distinct entries, want %d", len(got), len(want))
	}
	for e, c := range want {
		if got[e] != c {
			t.Fatalf("loaded range count for %v = %d, want %d", e, got[e], c)
		}
	}
	if tr.Len() > 0 {
		p := geo.Pt(17, 23)
		a, b := tr.NearestK(p, 8), loaded.NearestK(p, 8)
		if len(a) != len(b) {
			t.Fatalf("loaded kNN returned %d, want %d", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("loaded kNN[%d] = %+v, want %+v", i, b[i], a[i])
			}
		}
	}
}

// FuzzTreeFromArena feeds arbitrary bytes to the arena parser: it must
// reject or accept them without panicking, and any accepted arena must
// re-serialise to the same bytes.
func FuzzTreeFromArena(f *testing.F) {
	empty := New(WithIDAggregate())
	f.Add(empty.AppendArena(nil))
	small := New()
	for i := 0; i < 100; i++ {
		small.Insert(Entry{Pt: geo.Pt(float64(i%10), float64(i/10)), ID: int32(i % 7)})
	}
	f.Add(small.AppendArena(nil))
	bulk := BulkLoad(small.All(), WithIDAggregate())
	bulk.Delete(bulk.All()[0])
	f.Add(bulk.AppendArena(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := TreeFromArena(data)
		if err != nil {
			return
		}
		if !bytes.Equal(data, tr.AppendArena(nil)) {
			t.Fatalf("accepted arena did not re-serialise identically")
		}
	})
}

// TestTreeFromArenaRejectsWrongFanout corrupts one header field at a
// time: a foreign fanout, and a version-1 header (the retired
// interleaved-rect layout). Both loaders must refuse each with an error
// naming the field.
func TestTreeFromArenaRejectsWrongFanout(t *testing.T) {
	tr := New()
	tr.Insert(Entry{Pt: geo.Pt(1, 2), ID: 1})
	for _, tc := range []struct {
		name, want string
		corrupt    func([]byte)
	}{
		{"fanout", "fanout", func(b []byte) { b[8] = 99 }}, // maxEntries field
		{"v1", "version", func(b []byte) { binary.LittleEndian.PutUint32(b, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := tr.AppendArena(nil)
			tc.corrupt(blob)
			for load, fn := range map[string]func([]byte) (*Tree, error){"heap": TreeFromArena, "view": TreeFromArenaView} {
				if _, err := fn(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s load: err = %v, want a %s error", load, err, tc.want)
				}
			}
		})
	}
}
