package core

import (
	"reflect"
	"testing"
)

func TestPatchHybridMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 30, 140, seed+700)
		idx := BuildGCTIndex(g)
		old := BuildHybrid(idx)
		oldCopy := make([][]VertexScore, len(old.Rankings()))
		for k := range old.Rankings() {
			oldCopy[k] = append([]VertexScore(nil), old.Rankings()[k]...)
		}

		ins, del := randomEdits(t, g, 4, 4, seed+701)
		newG, err := ApplyEdits(g, ins, del)
		if err != nil {
			t.Fatal(err)
		}
		newIdx, _ := idx.UpdateOnto(newG, ins, del)
		affected := AffectedVertices(g, newG, ins, del)

		patched := PatchHybrid(old, newIdx, affected)
		fresh := BuildHybrid(newIdx)
		if patched.MaxK() != fresh.MaxK() {
			t.Fatalf("seed %d: patched maxK %d, fresh %d", seed, patched.MaxK(), fresh.MaxK())
		}
		if !reflect.DeepEqual(patched.Rankings(), fresh.Rankings()) {
			t.Fatalf("seed %d: patched hybrid rankings diverge from rebuild\npatched: %v\nfresh:   %v",
				seed, patched.Rankings(), fresh.Rankings())
		}
		// Copy-on-write contract: the previous snapshot's rankings survive.
		for k := range oldCopy {
			if !reflect.DeepEqual(old.Rankings()[k], oldCopy[k]) {
				t.Fatalf("seed %d k=%d: PatchHybrid mutated the old rankings", seed, k)
			}
		}
	}
}

func TestPatchHybridNoAffected(t *testing.T) {
	g := randomGraph(t, 20, 80, 31)
	idx := BuildGCTIndex(g)
	old := BuildHybrid(idx)
	patched := PatchHybrid(old, idx, nil)
	if !reflect.DeepEqual(patched.Rankings(), old.Rankings()) {
		t.Fatal("empty affected set must reproduce the rankings unchanged")
	}
}

func TestPatchMeasureRankingsMatchesRebuild(t *testing.T) {
	// Truss rankings live in Hybrid (PatchHybrid above); the measure
	// ranking tables cover the other two measures.
	for _, m := range []Measure{MeasureComponent, MeasureCore} {
		for seed := int64(0); seed < 5; seed++ {
			g := randomGraph(t, 28, 130, seed+800)
			old := BuildMeasureRankings(g, m)
			oldCopy := make([][]VertexScore, len(old))
			for k := range old {
				oldCopy[k] = append([]VertexScore(nil), old[k]...)
			}

			ins, del := randomEdits(t, g, 3, 4, seed+801)
			newG, err := ApplyEdits(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			affected := AffectedVertices(g, newG, ins, del)

			patched := PatchMeasureRankings(newG, m, old, affected)
			fresh := BuildMeasureRankings(newG, m)
			if !reflect.DeepEqual(patched, fresh) {
				t.Fatalf("measure %q seed %d: patched rankings diverge from rebuild\npatched: %v\nfresh:   %v",
					m, seed, patched, fresh)
			}
			for k := range oldCopy {
				if !reflect.DeepEqual(old[k], oldCopy[k]) {
					t.Fatalf("measure %q seed %d k=%d: patch mutated the old rankings", m, seed, k)
				}
			}
		}
	}
}
