package core

import (
	"context"

	"trussdiv/internal/graph"
)

// Hybrid is the competitor of paper Exp-4: it precomputes, for every
// possible k, the complete vertex ranking by structural diversity, so a
// top-r query reads the first r entries directly — but it must still
// recover the social contexts online with Algorithm 2, which is what makes
// it lose to GCT as r grows. It is the truss row of the rankings family:
// the search itself is a Ranked over the truss per-k tables.
type Hybrid struct {
	r *Ranked
}

// newHybrid adopts the truss per-k rankings perK (at least k=2 entries)
// as a searcher over g.
func newHybrid(g *graph.Graph, perK [][]VertexScore) *Hybrid {
	r := NewRanked(NewScorerPool(g, MeasureTruss), perK)
	r.engine = "hybrid"
	return &Hybrid{r: r}
}

// BuildHybrid precomputes the per-k rankings. Scores are read from a GCT
// index (cheap exact queries); the returned structure owns its rankings.
func BuildHybrid(idx *GCTIndex) *Hybrid {
	g := idx.Graph()
	// Maximum ego trussness bounds the meaningful k range.
	maxK := int32(2)
	for v := int32(0); int(v) < g.N(); v++ {
		taus, _ := idx.Supernodes(v)
		if len(taus) > 0 && taus[0] > maxK {
			maxK = taus[0]
		}
	}
	perK := make([][]VertexScore, maxK+1)
	for k := int32(2); k <= maxK; k++ {
		list := make([]VertexScore, 0, g.N())
		for v := int32(0); int(v) < g.N(); v++ {
			if s := idx.Score(v, k); s > 0 {
				list = append(list, VertexScore{V: v, Score: s})
			}
		}
		sortAnswer(list)
		perK[k] = list
	}
	return newHybrid(g, perK)
}

// NewHybridFromRankings reconstructs a Hybrid from previously computed
// per-k rankings (e.g. ones loaded from an index store): perK[k] must be
// sorted by score descending then vertex ascending, exactly as Rankings
// returns them. The rankings are adopted, not copied; a table without a
// k=2 entry is replaced by an empty one that has it.
func NewHybridFromRankings(g *graph.Graph, perK [][]VertexScore) *Hybrid {
	if len(perK) < 3 {
		perK = make([][]VertexScore, 3)
	}
	return newHybrid(g, perK)
}

// MaxK returns the largest k with a non-trivial ranking.
func (h *Hybrid) MaxK() int32 { return int32(len(h.r.perK)) - 1 }

// TopR answers from the precomputed ranking, then computes the contexts of
// each answer vertex online (the dominant cost, per the paper).
func (h *Hybrid) TopR(k int32, r int) (*Result, *Stats, error) {
	return h.Search(context.Background(), Params{K: k, R: r})
}

// Search answers from the precomputed ranking. Reading the ranking is
// nearly free; the expensive part is the per-answer online context
// recovery (Algorithm 2), which finishResult polls on every vertex — so a
// Search with SkipContexts set is the cheapest query in the library. A
// measure other than truss is rejected with an *UnsupportedMeasureError
// naming the "hybrid" engine.
func (h *Hybrid) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	return h.r.Search(ctx, p)
}

// rankedAnswer selects the canonical top-r answer from one precomputed
// per-k ranking (sorted by score descending, vertex ascending): an O(r)
// prefix read without a candidate subset, a filtered pass with one, and
// zero-score padding when fewer than r candidates have any social
// context — matching the scanning searchers' answer byte for byte. The
// second return is the number of ranked candidates considered (the
// Stats.Candidates of rankings-backed engines).
func rankedAnswer(ranked []VertexScore, n int, p Params) ([]VertexScore, int) {
	var answer []VertexScore
	var candidates int
	if p.Candidates == nil {
		candidates = len(ranked)
		answer = append(make([]VertexScore, 0, p.R), ranked[:min(p.R, len(ranked))]...)
	} else {
		inCand := make(map[int32]bool, len(p.Candidates))
		for _, v := range p.Candidates {
			inCand[v] = true
		}
		answer = make([]VertexScore, 0, p.R)
		for _, e := range ranked {
			if !inCand[e.V] {
				continue
			}
			candidates++
			if len(answer) < p.R {
				answer = append(answer, e)
			}
		}
	}
	if len(answer) < p.R {
		heap := newTopRHeap(p.R)
		for _, e := range answer {
			heap.Offer(e.V, e.Score)
		}
		padAnswer(heap, n, p.Candidates)
		answer = heap.Answer()
	}
	return answer, candidates
}

// SizeBytes reports the ranking storage footprint.
func (h *Hybrid) SizeBytes() int64 {
	var b int64
	for _, list := range h.r.perK {
		b += int64(len(list))*8 + 24
	}
	return b
}

// Rankings returns every per-k ranking indexed by k (entries below k=2
// are nil), the inverse of NewHybridFromRankings. The slices alias
// internal storage.
func (h *Hybrid) Rankings() [][]VertexScore { return h.r.perK }

// Ranking returns the full precomputed ranking for k (sorted by score
// descending). The slice aliases internal storage.
func (h *Hybrid) Ranking(k int32) []VertexScore {
	if int(k) >= len(h.r.perK) {
		return nil
	}
	return h.r.perK[k]
}

// ScoresAt returns a dense score vector for threshold k computed from a
// ranking, mainly for tests and the effectiveness experiments.
func (h *Hybrid) ScoresAt(k int32) []int {
	out := make([]int, h.r.g.N())
	for _, e := range h.Ranking(k) {
		out[e.V] = e.Score
	}
	return out
}
