package core

import "trussdiv/internal/graph"

// In-place repair of the per-k ranking tables after an edit batch. The
// rankings (hybrid truss rankings and the per-measure rankings) are global
// orderings, but every entry is a per-vertex score computed from that
// vertex's ego-network alone — so an edit batch can only move the vertices
// in AffectedVertices. Patching removes those vertices from each ranking,
// re-scores them against the repaired index (or the edited graph), and
// merges them back in canonical order. The result is byte-identical to a
// fresh BuildHybrid/BuildMeasureRankings over the edited graph at a cost
// proportional to copying the tables plus re-scoring the affected set,
// instead of re-scoring every vertex.

// PatchHybrid derives the hybrid per-k rankings for the edited graph from
// the previous snapshot's rankings: only the affected vertices (sorted,
// from AffectedVertices) are re-scored against the repaired GCT index idx,
// which must already describe the edited graph. old stays fully usable
// (copy-on-write, like the index UpdateOnto repairs).
func PatchHybrid(old *Hybrid, idx *GCTIndex, affected []int32) *Hybrid {
	g := idx.Graph()
	// The meaningful k range can shrink or grow only through affected
	// vertices, but recomputing it exactly costs one cheap pass over the
	// supernode tops — the same pass BuildHybrid makes.
	maxK := int32(2)
	for v := int32(0); int(v) < g.N(); v++ {
		taus, _ := idx.Supernodes(v)
		if len(taus) > 0 && taus[0] > maxK {
			maxK = taus[0]
		}
	}
	perK := make([][]VertexScore, maxK+1)
	oldPerK := old.Rankings()
	aff := make(map[int32]bool, len(affected))
	for _, v := range affected {
		aff[v] = true
	}
	for k := int32(2); k <= maxK; k++ {
		var oldList []VertexScore
		if int(k) < len(oldPerK) {
			oldList = oldPerK[k]
		}
		fresh := make([]VertexScore, 0, len(affected))
		for _, v := range affected {
			if s := idx.Score(v, k); s > 0 {
				fresh = append(fresh, VertexScore{V: v, Score: s})
			}
		}
		sortAnswer(fresh)
		// BuildHybrid always allocates (possibly empty, never nil) lists,
		// so the merge does too — patched rankings must round-trip through
		// the store identically to built ones.
		perK[k] = mergeRanked(oldList, fresh, aff)
	}
	return newHybrid(g, perK)
}

// PatchMeasureRankings derives measure m's per-k rankings for the edited
// graph g from the previous snapshot's rankings, re-scoring only the
// affected vertices (one ego decomposition each). The output matches
// BuildMeasureRankings(g, m) exactly: zero scores omitted, perK[k] in
// canonical order, nil for entries below k=2 and for empty lists, and the
// table trimmed to the true maximum k.
func PatchMeasureRankings(g *graph.Graph, m Measure, old [][]VertexScore, affected []int32) [][]VertexScore {
	aff := make(map[int32]bool, len(affected))
	freshScores := make(map[int32][]int, len(affected))
	maxK := int32(len(old)) - 1
	if maxK < 2 {
		maxK = 2
	}
	scorer := NewVertexScorer(g, m)
	for _, v := range affected {
		aff[v] = true
		// ScoresAllK hands back scratch-owned storage; copy before the
		// next iteration reuses it.
		s := append([]int(nil), scorer.ScoresAllK(v)...)
		freshScores[v] = s
		if top := int32(len(s)) - 1; top > maxK {
			maxK = top
		}
	}
	perK := make([][]VertexScore, maxK+1)
	for k := int32(2); k <= maxK; k++ {
		var oldList []VertexScore
		if int(k) < len(old) {
			oldList = old[k]
		}
		var fresh []VertexScore
		for _, v := range affected {
			if s := freshScores[v]; int(k) < len(s) && s[k] > 0 {
				fresh = append(fresh, VertexScore{V: v, Score: s[k]})
			}
		}
		sortAnswer(fresh)
		// BuildMeasureRankings leaves empty lists nil; mirror that so
		// patched tables are indistinguishable from built ones.
		if merged := mergeRanked(oldList, fresh, aff); len(merged) > 0 {
			perK[k] = merged
		}
	}
	// An affected vertex may have held the only entries at the top ks;
	// trim the table to the true maximum exactly as a fresh build sizes it.
	top := int32(2)
	for k := int32(2); k <= maxK; k++ {
		if len(perK[k]) > 0 {
			top = k
		}
	}
	return perK[:top+1]
}

// mergeRanked merges the surviving old entries (old minus the affected
// vertices, already in canonical order) with the freshly re-scored ones
// (also canonical) into one canonically ordered list: score descending,
// vertex ascending. The result never aliases either input.
func mergeRanked(oldList, fresh []VertexScore, aff map[int32]bool) []VertexScore {
	out := make([]VertexScore, 0, len(oldList)+len(fresh))
	ranksBefore := func(a, b VertexScore) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.V < b.V
	}
	i := 0
	for _, e := range oldList {
		if aff[e.V] {
			continue
		}
		for i < len(fresh) && ranksBefore(fresh[i], e) {
			out = append(out, fresh[i])
			i++
		}
		out = append(out, e)
	}
	return append(out, fresh[i:]...)
}
