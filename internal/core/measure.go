package core

import (
	"context"
	"errors"
	"fmt"

	"trussdiv/internal/graph"
)

// Measure names one structural diversity definition — the axis the
// paper's §7 varies when it compares the truss-based model against the
// component-based (Comp-Div) and core-based (Core-Div) alternatives.
// The generic engines (Online, Bound) serve every measure; the
// truss-index engines (TSD, GCT, Hybrid) serve only MeasureTruss and
// reject other measures with an *UnsupportedMeasureError.
type Measure string

const (
	// MeasureTruss counts maximal connected k-trusses of the ego-network
	// (the paper's model, Def. 3). It is the default: an empty Measure
	// normalizes to it.
	MeasureTruss Measure = "truss"
	// MeasureComponent counts connected components of the ego-network
	// with at least k vertices (Huang et al. / Chang et al. [7, 21]).
	MeasureComponent Measure = "component"
	// MeasureCore counts maximal connected k-cores of the ego-network
	// (Huang et al. [20]).
	MeasureCore Measure = "core"
)

// AllMeasures lists every supported measure, default first.
func AllMeasures() []Measure {
	return []Measure{MeasureTruss, MeasureComponent, MeasureCore}
}

// Normalize maps the empty measure to the truss default.
func (m Measure) Normalize() Measure {
	if m == "" {
		return MeasureTruss
	}
	return m
}

// Valid reports whether m (after normalization) names a known measure.
func (m Measure) Valid() bool {
	switch m.Normalize() {
	case MeasureTruss, MeasureComponent, MeasureCore:
		return true
	}
	return false
}

// ParseMeasure resolves a user-supplied measure name ("" = truss).
func ParseMeasure(s string) (Measure, error) {
	m := Measure(s)
	if !m.Valid() {
		return "", fmt.Errorf("core: unknown measure %q (known: truss|component|core)", s)
	}
	return m.Normalize(), nil
}

// ErrUnsupportedMeasure is the sentinel matched by errors.Is when a
// query names a measure the chosen engine cannot compute (the TSD, GCT,
// and Hybrid structures encode truss decompositions only); the concrete
// error is *UnsupportedMeasureError.
var ErrUnsupportedMeasure = errors.New("core: engine does not support the requested measure")

// UnsupportedMeasureError reports a (engine, measure) pair outside the
// routing matrix: the engine exists and the measure exists, but that
// engine cannot compute that measure.
type UnsupportedMeasureError struct {
	Engine  string
	Measure Measure
}

func (e *UnsupportedMeasureError) Error() string {
	return fmt.Sprintf("core: engine %q does not support measure %q", e.Engine, e.Measure)
}

// Is makes errors.Is(err, ErrUnsupportedMeasure) match.
func (e *UnsupportedMeasureError) Is(target error) bool { return target == ErrUnsupportedMeasure }

// MeasureUpperBound bounds score(v) under measure m from two quantities
// every measure shares: the degree d(v) and the ego-network edge count
// m_v (= the number of triangles through v). Each measure's contexts
// have a minimum size, which caps how many can fit in the ego-network:
//
//   - truss: Lemma 2 — a k-truss has >= k vertices and >= k(k-1)/2 edges.
//   - component: a connected component with >= k vertices has >= k-1 edges.
//   - core: a connected k-core has >= k+1 vertices (every member needs k
//     neighbors inside it) and therefore >= k(k+1)/2 edges — Lemma 2
//     evaluated at k+1.
func MeasureUpperBound(m Measure, degree int, egoEdges int32, k int32) int {
	switch m.Normalize() {
	case MeasureComponent:
		byVerts := degree / int(k)
		byEdges := int(egoEdges) / int(k-1)
		return min(byVerts, byEdges)
	case MeasureCore:
		return UpperBound(degree, egoEdges, k+1)
	default:
		return UpperBound(degree, egoEdges, k)
	}
}

// BuildMeasureRankings precomputes, for every k, the complete vertex
// ranking of g under measure m — the same per-k artifact the Hybrid
// engine holds for the truss measure, generalized to the alternative
// models. One ego decomposition per vertex yields the scores for every
// k at once (components expose their sizes; cores their full core
// numbers), so the build costs one online scan, after which any top-r
// query under m is an O(r) prefix read. perK[k] is sorted by score
// descending then vertex ascending and omits zero scores; entries below
// k=2 are nil. MeasureTruss rankings come from BuildHybrid instead.
func BuildMeasureRankings(g *graph.Graph, m Measure) [][]VertexScore {
	scorer := NewVertexScorer(g, m)
	// Stream each vertex's all-k vector straight into the per-k lists
	// (ascending v, so each list is already vertex-ordered before the
	// canonical sort) instead of materializing an n × maxK table.
	perK := make([][]VertexScore, 3) // grown on demand; entries below k=2 stay nil
	for v := int32(0); int(v) < g.N(); v++ {
		scores := scorer.ScoresAllK(v)
		for len(perK) < len(scores) {
			perK = append(perK, nil)
		}
		for k := 2; k < len(scores); k++ {
			if s := scores[k]; s > 0 {
				perK[k] = append(perK[k], VertexScore{V: v, Score: s})
			}
		}
	}
	for k := 2; k < len(perK); k++ {
		sortAnswer(perK[k])
	}
	return perK
}

// Ranked serves top-r queries of one measure from its precomputed per-k
// rankings — the Hybrid strategy generalized beyond the truss model.
// Reading the ranking is an O(r) prefix scan; the social contexts of the
// answer vertices are recovered online with the measure's own scorer
// (sharded across p.Workers, the dominant per-answer cost).
type Ranked struct {
	g      *graph.Graph
	m      Measure
	pool   *ScorerPool
	perK   [][]VertexScore
	engine string // names the searcher in *UnsupportedMeasureError; "" = ranked[m]
}

// NewRanked returns a rankings-backed searcher for the measure of pool
// over the pool's graph g, recovering contexts with scorers borrowed
// from pool. perK must come from BuildMeasureRankings(g, m) (or an index
// store that persisted it): perK[k] sorted by score descending, vertex
// ascending, zero scores omitted. The rankings are adopted, not copied.
func NewRanked(pool *ScorerPool, perK [][]VertexScore) *Ranked {
	return &Ranked{g: pool.Graph(), m: pool.Measure(), pool: pool, perK: perK}
}

// Measure returns the measure the rankings were scored under.
func (r *Ranked) Measure() Measure { return r.m }

// Search answers a top-r query of r.Measure() from the rankings; a
// Params.Measure naming any other measure is rejected with an
// *UnsupportedMeasureError.
func (r *Ranked) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	p, err := p.normalized(r.g.N())
	if err != nil {
		return nil, nil, err
	}
	if m := p.Measure.Normalize(); m != r.m {
		engine := r.engine
		if engine == "" {
			engine = "ranked[" + string(r.m) + "]"
		}
		return nil, nil, &UnsupportedMeasureError{Engine: engine, Measure: m}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var ranked []VertexScore
	if int(p.K) < len(r.perK) {
		ranked = r.perK[p.K]
	}
	answer, candidates := rankedAnswer(ranked, r.g.N(), p)
	stats := &Stats{Candidates: candidates}
	res, err := finishResult(ctx, answer, p, func(v int32) [][]int32 {
		return r.pool.Contexts(v, p.K)
	})
	if err != nil {
		return nil, nil, err
	}
	if !p.SkipContexts {
		// Every answer vertex cost one online recovery (the "search
		// space" of a rankings-backed engine); counted here so parallel
		// recovery stays race-free.
		stats.ScoreComputations = len(answer)
	}
	return res, exportStats(stats, p), nil
}
