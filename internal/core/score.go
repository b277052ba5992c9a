package core

import (
	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
)

// Scorer computes truss-based structural diversity scores and social
// contexts online (paper Algorithm 2): extract the ego-network, truss-
// decompose it, drop edges below the threshold, and count the connected
// components that remain.
//
// A Scorer is safe for concurrent use: calls borrow a per-worker
// VertexScorer from a ScorerPool, so steady-state scoring stays
// allocation-free without giving up the shared-scorer contract. The
// pooled scorers hold n-sized extraction tables, so keep one Scorer per
// graph rather than building one per call. Scan loops that own their
// workers should lend scorers from a ScorerPool instead
// (ScorerPool.ScanWorkers).
type Scorer struct {
	g    *graph.Graph
	pool *ScorerPool // truss measure
}

// NewScorer returns a Scorer over g.
func NewScorer(g *graph.Graph) *Scorer {
	return &Scorer{g: g, pool: NewScorerPool(g, MeasureTruss)}
}

// Graph returns the underlying graph.
func (s *Scorer) Graph() *graph.Graph { return s.g }

// Score returns score(v) w.r.t. trussness threshold k (paper Def. 3).
// k must be >= 2.
func (s *Scorer) Score(v int32, k int32) int {
	return s.pool.Score(v, k)
}

// Contexts returns the social contexts SC(v): the vertex sets (global IDs,
// each sorted) of the maximal connected k-trusses of v's ego-network
// (paper Def. 2).
func (s *Scorer) Contexts(v int32, k int32) [][]int32 {
	return s.pool.Contexts(v, k)
}

// ScoreAndContexts computes both in one ego decomposition.
func (s *Scorer) ScoreAndContexts(v int32, k int32) (int, [][]int32) {
	vs := s.pool.Get()
	defer s.pool.Put(vs)
	net := ego.ExtractOneInto(&vs.ego, s.g, v)
	if net.G.M() == 0 {
		return 0, nil
	}
	tau := vs.tr.DecomposeInto(net.G)
	comps := vs.tr.Components(net.G, tau, k)
	return len(comps), net.GlobalSets(comps)
}

// EgoTrussness returns the trussness of the edge (a,b) inside the
// ego-network of v, or 0 when (a,b) is not an ego edge. It exposes the
// quantity τ_{G_N(v)}(a,b) from the paper's non-symmetry discussion
// (Observation 1) for analysis and tests.
func (s *Scorer) EgoTrussness(v, a, b int32) int32 {
	vs := s.pool.Get()
	defer s.pool.Put(vs)
	net := ego.ExtractOneInto(&vs.ego, s.g, v)
	la, lb := net.Local(a), net.Local(b)
	if la < 0 || lb < 0 {
		return 0
	}
	id := net.G.EdgeID(la, lb)
	if id < 0 {
		return 0
	}
	return vs.tr.DecomposeInto(net.G)[id]
}
