package rtree

import "repro/internal/geo"

// splitNode splits an overflowing node in place using Guttman's quadratic
// split: group A is written back into n, group B into a freshly allocated
// sibling, which is returned. The caller attaches the sibling to n's
// parent (or grows a new root). Ancestor aggregates are unaffected — the
// multiset below the parent is unchanged — so only the two halves are
// rebuilt; plane values move with their entries and the two halves'
// maxima are recomputed for the same reason.
func (t *Tree) splitNode(n NodeID) NodeID {
	sib := t.alloc(t.leaf[n])
	base := int(n) * slotsPerNode
	cnt := int(t.counts[n])
	if t.leaf[n] {
		scratch := t.splitEnts[:cnt]
		copy(scratch, t.ents[base:base+cnt])
		ga, gb := quadraticSplit(cnt, func(i int) geo.Rect { return geo.RectOf(scratch[i].Pt) })
		for i, idx := range ga {
			t.ents[base+i] = scratch[idx]
		}
		t.counts[n] = int32(len(ga))
		sbase := int(sib) * slotsPerNode
		for i, idx := range gb {
			t.ents[sbase+i] = scratch[idx]
		}
		t.counts[sib] = int32(len(gb))
		if p := t.plane; p != nil {
			var vals [slotsPerNode]float64
			copy(vals[:], p.ent[base:base+cnt])
			for i, idx := range ga {
				p.ent[base+i] = vals[idx]
			}
			for i, idx := range gb {
				p.ent[sbase+i] = vals[idx]
			}
		}
	} else {
		scratch := t.splitKids[:cnt]
		copy(scratch, t.kids[base:base+cnt])
		ga, gb := quadraticSplit(cnt, func(i int) geo.Rect { return t.rect(scratch[i]) })
		for i, idx := range ga {
			t.kids[base+i] = scratch[idx]
		}
		t.counts[n] = int32(len(ga))
		sbase := int(sib) * slotsPerNode
		for i, idx := range gb {
			c := scratch[idx]
			t.kids[sbase+i] = c
			t.parent[c] = sib
		}
		t.counts[sib] = int32(len(gb))
	}
	t.recomputeRect(n)
	t.recomputeRect(sib)
	if t.trackIDs {
		t.rebuildAgg(n)
		t.rebuildAgg(sib)
	}
	if t.plane != nil {
		t.recomputeMax(n)
		t.recomputeMax(sib)
	}
	return sib
}

// quadraticSplit partitions indices 0..n-1 into two groups using Guttman's
// quadratic PickSeeds/PickNext heuristics, guaranteeing each group ends up
// with at least minEntries members.
func quadraticSplit(n int, rectOf func(int) geo.Rect) (groupA, groupB []int) {
	// PickSeeds: the pair wasting the most area if grouped together.
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		ri := rectOf(i)
		for j := i + 1; j < n; j++ {
			rj := rectOf(j)
			d := ri.UnionArea(rj) - ri.Area() - rj.Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	groupA = append(groupA, seedA)
	groupB = append(groupB, seedB)
	rectA, rectB := rectOf(seedA), rectOf(seedB)

	assigned := make([]bool, n)
	assigned[seedA], assigned[seedB] = true, true
	remaining := n - 2

	for remaining > 0 {
		// If one group must absorb everything left to reach minEntries,
		// assign the rest wholesale.
		if len(groupA)+remaining == minEntries {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groupA = append(groupA, i)
					rectA = rectA.Union(rectOf(i))
					assigned[i] = true
				}
			}
			break
		}
		if len(groupB)+remaining == minEntries {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groupB = append(groupB, i)
					rectB = rectB.Union(rectOf(i))
					assigned[i] = true
				}
			}
			break
		}
		// PickNext: the index with the greatest preference difference.
		next, bestDiff := -1, -1.0
		var dA, dB float64
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			r := rectOf(i)
			da := rectA.Enlargement(r)
			db := rectB.Enlargement(r)
			diff := da - db
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, next, dA, dB = diff, i, da, db
			}
		}
		assigned[next] = true
		remaining--
		// Resolve ties: smaller enlargement, then smaller area, then count.
		toA := dA < dB
		if dA == dB {
			if rectA.Area() != rectB.Area() {
				toA = rectA.Area() < rectB.Area()
			} else {
				toA = len(groupA) <= len(groupB)
			}
		}
		if toA {
			groupA = append(groupA, next)
			rectA = rectA.Union(rectOf(next))
		} else {
			groupB = append(groupB, next)
			rectB = rectB.Union(rectOf(next))
		}
	}
	return groupA, groupB
}
