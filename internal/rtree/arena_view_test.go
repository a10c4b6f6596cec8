package rtree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

// buildViewTestTree makes a deterministic tree with enough churn to
// exercise splits, frees and (optionally) the ID aggregate.
func buildViewTestTree(t *testing.T, seed int64, opts ...Option) (*Tree, []Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := New(opts...)
	var live []Entry
	for step := 0; step < 900; step++ {
		if k := rng.Intn(100); k < 70 || len(live) == 0 {
			e := Entry{
				Pt:  geo.Pt(float64(rng.Intn(64)), float64(rng.Intn(64))),
				ID:  int32(rng.Intn(40)),
				Aux: int32(rng.Intn(4)),
			}
			tr.Insert(e)
			live = append(live, e)
		} else {
			i := rng.Intn(len(live))
			if !tr.Delete(live[i]) {
				t.Fatalf("seed %d step %d: delete failed", seed, step)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	return tr, live
}

func sortedNeighbors(ns []Neighbor) []Neighbor {
	out := append([]Neighbor(nil), ns...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Entry.ID < out[j].Entry.ID
	})
	return out
}

func assertTreesAgree(t *testing.T, want, got *Tree, rng *rand.Rand) {
	t.Helper()
	if want.Len() != got.Len() || want.Generation() != got.Generation() {
		t.Fatalf("len/gen mismatch: %d/%d vs %d/%d",
			want.Len(), want.Generation(), got.Len(), got.Generation())
	}
	for q := 0; q < 32; q++ {
		p := geo.Pt(float64(rng.Intn(70))-3, float64(rng.Intn(70))-3)
		k := 1 + rng.Intn(8)
		a := sortedNeighbors(want.NearestK(p, k))
		b := sortedNeighbors(got.NearestK(p, k))
		if len(a) != len(b) {
			t.Fatalf("query %v k=%d: %d vs %d results", p, k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v k=%d result %d: %+v vs %+v", p, k, i, a[i], b[i])
			}
		}
	}
}

// TestTreeFromArenaView asserts the zero-copy load path is
// indistinguishable from the copying one: identical queries, identical
// re-serialization, and FileBacked reporting the aliasing honestly.
func TestTreeFromArenaView(t *testing.T) {
	for _, withAgg := range []bool{false, true} {
		var opts []Option
		if withAgg {
			opts = append(opts, WithIDAggregate())
		}
		tr, _ := buildViewTestTree(t, 77, opts...)
		blob := tr.AppendArena(nil)

		v, err := TreeFromArenaView(blob)
		if err != nil {
			t.Fatalf("agg=%v TreeFromArenaView: %v", withAgg, err)
		}
		if hostLittleEndian && !v.FileBacked() {
			t.Fatalf("agg=%v view load not file-backed on little-endian host", withAgg)
		}
		if v.FileBacked() && v.ViewBytes() == 0 {
			t.Fatalf("ViewBytes = 0 on a file-backed tree")
		}
		assertTreesAgree(t, tr, v, rand.New(rand.NewSource(1)))
		if got := v.AppendArena(nil); !bytes.Equal(got, blob) {
			t.Fatalf("agg=%v view-backed re-serialization differs", withAgg)
		}
		if withAgg {
			if got, want := v.IDList(v.Root()), tr.IDList(tr.Root()); len(got) != len(want) {
				t.Fatalf("root IDList %d vs %d", len(got), len(want))
			}
		}
	}
}

// TestViewCopyOnWrite asserts the first mutation migrates the tree off
// the source buffer without corrupting it, and that the migrated tree
// behaves like a fresh heap load given the same mutation.
func TestViewCopyOnWrite(t *testing.T) {
	tr, live := buildViewTestTree(t, 99)
	blob := tr.AppendArena(nil)
	orig := append([]byte(nil), blob...)

	for name, mutate := range map[string]func(*Tree){
		"insert": func(m *Tree) { m.Insert(Entry{Pt: geo.Pt(-5, -5), ID: 999}) },
		"delete": func(m *Tree) {
			if !m.Delete(live[0]) {
				t.Fatal("delete failed")
			}
		},
	} {
		v, err := TreeFromArenaView(blob)
		if err != nil {
			t.Fatalf("%s: view load: %v", name, err)
		}
		h, err := TreeFromArena(blob)
		if err != nil {
			t.Fatalf("%s: heap load: %v", name, err)
		}
		mutate(v)
		mutate(h)
		if v.FileBacked() {
			t.Fatalf("%s: still file-backed after mutation", name)
		}
		if v.ViewBytes() != 0 {
			t.Fatalf("%s: ViewBytes = %d after mutation", name, v.ViewBytes())
		}
		if !bytes.Equal(blob, orig) {
			t.Fatalf("%s: mutation wrote through the source buffer", name)
		}
		assertTreesAgree(t, h, v, rand.New(rand.NewSource(2)))
		if a, b := v.AppendArena(nil), h.AppendArena(nil); !bytes.Equal(a, b) {
			t.Fatalf("%s: mutated view and heap trees serialize differently", name)
		}
	}
}

// TestViewMisalignedFallsBack asserts a buffer the views cannot alias
// still loads correctly via the copying path.
func TestViewMisalignedFallsBack(t *testing.T) {
	tr, _ := buildViewTestTree(t, 55)
	blob := tr.AppendArena(nil)
	backing := make([]byte, len(blob)+9)
	var off int
	for off = 1; off < 9; off++ {
		if canView := canViewArena(backing[off : off+len(blob)]); !canView {
			break
		}
	}
	if off == 9 {
		t.Skip("could not construct a misaligned buffer")
	}
	mis := backing[off : off+len(blob)]
	copy(mis, blob)
	v, err := TreeFromArenaView(mis)
	if err != nil {
		t.Fatalf("misaligned view load: %v", err)
	}
	if v.FileBacked() {
		t.Fatal("misaligned buffer reported file-backed")
	}
	assertTreesAgree(t, tr, v, rand.New(rand.NewSource(3)))
}
