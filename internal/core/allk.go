package core

import (
	"context"

	"trussdiv/internal/graph"
)

// Exported hooks for the parameter-free search subsystem
// (internal/pfree). The parameter-free objective aggregates the per-k
// score vector of a vertex across every threshold at once, so it needs
// the all-k scorer for every measure — including truss, which
// BuildMeasureRankings deliberately excludes (the hybrid engine owns the
// truss per-k tables) — plus the canonical-order primitives every engine
// shares: the ranked prefix read, the padded scan, the sharded context
// recovery, and the patch merge. Exporting them here keeps internal/pfree
// byte-identical to the existing engines by construction instead of by
// re-implementation.

// ScoresAllK computes score(v, k) under measure m for every k >= 2 from
// one ego-network decomposition. The returned slice is indexed by k
// (length maxK+1, entries 0 and 1 unused); nil when the ego-network has
// no edges or no score reaches any threshold. For the non-truss measures
// this is exactly the per-vertex pass BuildMeasureRankings makes; the
// truss branch decomposes the ego-network once and counts the k-truss
// components at every threshold the decomposition reaches.
func ScoresAllK(g *graph.Graph, v int32, m Measure) []int {
	// A one-shot VertexScorer: the returned vector aliases its scratch,
	// which is never reused, so the slice is safe to keep. The scratch
	// costs an n-sized extraction table, so loops and serving paths
	// borrow a VertexScorer from a long-lived ScorerPool instead.
	return NewVertexScorer(g, m).ScoresAllK(v)
}

// SortCanonical orders entries under the library's total order: score
// descending, vertex ID ascending — the order every engine's answer (and
// every persisted ranking) is pinned to.
func SortCanonical(entries []VertexScore) { sortAnswer(entries) }

// MergeRanked merges the surviving old entries (old minus the affected
// vertices, already canonical) with the freshly re-scored ones (also
// canonical) into one canonically ordered list — the splice primitive of
// the ranking patch path (PatchHybrid, PatchMeasureRankings, and the
// pfree ranking patch). The result never aliases either input.
func MergeRanked(oldList, fresh []VertexScore, affected map[int32]bool) []VertexScore {
	return mergeRanked(oldList, fresh, affected)
}

// RankedAnswer selects the canonical top-r answer from one precomputed
// ranking (sorted canonically, zero scores omitted): an O(r) prefix read
// without a candidate subset, a filtered pass with one, and zero-score
// padding from the smallest unused IDs — byte-identical to what a full
// scan would answer. The second return is the number of ranked
// candidates considered.
func RankedAnswer(ranked []VertexScore, n int, p Params) ([]VertexScore, int) {
	return rankedAnswer(ranked, n, p)
}

// FinishResult assembles the Result for a canonical answer, recovering
// each answer vertex's contexts via the callback unless p.SkipContexts
// (sharded across p.Workers goroutines; contexts must be safe for
// concurrent calls).
func FinishResult(ctx context.Context, answer []VertexScore, p Params, contexts func(v int32) [][]int32) (*Result, error) {
	return finishResult(ctx, answer, p, contexts)
}

// ScanCanonical scores every candidate of p (all n vertices when
// p.Candidates is nil) with per-worker scoring functions from newScore,
// merging the per-worker heaps into the canonical top-r answer — the
// online-engine scan generalized over an arbitrary scorer. The context is
// polled on every iteration (one ego decomposition per score). The
// second return counts score computations.
func ScanCanonical(ctx context.Context, n int, p Params, newScore func() func(v int32) int) ([]VertexScore, int, error) {
	heap, scored, err := scanTopR(ctx, n, p.Candidates, p.R, p.workers(), true, newScore)
	if err != nil {
		return nil, 0, err
	}
	return heap.Answer(), scored, nil
}
