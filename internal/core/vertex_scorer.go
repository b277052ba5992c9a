package core

import (
	"sync"

	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
	"trussdiv/internal/truss"
)

// VertexScorer is the allocation-free per-vertex scoring pipeline: one
// ego-extraction scratch plus the decomposition scratch of its measure,
// reused across calls so a steady-state Score costs zero allocations.
// It computes exactly what the measure's shared scorer (Scorer, or the
// baseline Comp-Div / Core-Div models) computes — the conformance and
// allocation suites pin both.
//
// A VertexScorer is NOT safe for concurrent use: each scan worker owns
// exactly one (see DESIGN.md "Scratch ownership contract"). Its
// extraction scratch holds an n-sized lookup table, so a VertexScorer
// should live as long as its graph: serving paths borrow them from the
// graph's ScorerPool instead of building one per call.
type VertexScorer struct {
	g *graph.Graph
	m Measure

	ego  ego.Scratch
	tr   truss.Scratch
	kc   kcore.Scratch
	cc   compScratch
	allk []int
}

// NewVertexScorer returns a single-worker scorer computing measure m
// over g.
func NewVertexScorer(g *graph.Graph, m Measure) *VertexScorer {
	return &VertexScorer{g: g, m: m.Normalize()}
}

// ScorerPool recycles the VertexScorers of one (graph, measure) pair and
// is safe for concurrent use. It is the scorer store of every serving
// path: scan workers borrow one VertexScorer each for the length of a
// scan (ScanWorkers), and Score/Contexts borrow one per call. A pool
// lives as long as its graph — one MeasurePools per graph, shared by the
// searchers and engines over it; idle scorers are released to the
// garbage collector by the underlying sync.Pool.
type ScorerPool struct {
	g    *graph.Graph
	m    Measure
	pool sync.Pool
}

// NewScorerPool returns an empty pool of measure-m scorers over g.
func NewScorerPool(g *graph.Graph, m Measure) *ScorerPool {
	p := &ScorerPool{g: g, m: m.Normalize()}
	p.pool.New = func() any { return NewVertexScorer(g, p.m) }
	return p
}

// Get borrows a VertexScorer; return it with Put.
func (p *ScorerPool) Get() *VertexScorer { return p.pool.Get().(*VertexScorer) }

// Put returns a VertexScorer borrowed with Get.
func (p *ScorerPool) Put(vs *VertexScorer) {
	vs.g = p.g // undo a rebind (getOn)
	p.pool.Put(vs)
}

// getOn borrows a VertexScorer that scores over g instead of the pool's
// graph. g must have the pool graph's vertex set (the Bound engine's
// sparsified copy); Put rebinds the scorer to the pool's graph.
func (p *ScorerPool) getOn(g *graph.Graph) *VertexScorer {
	vs := p.Get()
	vs.g = g
	return vs
}

// Graph returns the graph the pool's scorers score over.
func (p *ScorerPool) Graph() *graph.Graph { return p.g }

// Measure returns the measure the pool's scorers compute.
func (p *ScorerPool) Measure() Measure { return p.m }

// Score returns score(v) w.r.t. k on a borrowed VertexScorer.
func (p *ScorerPool) Score(v int32, k int32) int {
	vs := p.Get()
	score := vs.Score(v, k)
	p.Put(vs)
	return score
}

// Contexts returns the contexts of v w.r.t. k on a borrowed VertexScorer.
func (p *ScorerPool) Contexts(v int32, k int32) [][]int32 {
	vs := p.Get()
	out := vs.Contexts(v, k)
	p.Put(vs)
	return out
}

// ScanWorkers lends one VertexScorer per scan worker: newScore (the
// per-worker factory ScanCanonical takes) borrows a scorer and wraps it
// in score; release returns every borrowed scorer and must be called
// once the scan has ended.
func (p *ScorerPool) ScanWorkers(score func(vs *VertexScorer, v int32) int) (newScore func() func(v int32) int, release func()) {
	return p.scanWorkersOn(p.g, score)
}

// scanWorkersOn is ScanWorkers with the scorers rebound to g (see getOn).
// The scan calls newScore from one goroutine, before its workers start.
func (p *ScorerPool) scanWorkersOn(g *graph.Graph, score func(vs *VertexScorer, v int32) int) (newScore func() func(v int32) int, release func()) {
	var lent []*VertexScorer
	newScore = func() func(v int32) int {
		vs := p.getOn(g)
		lent = append(lent, vs)
		return func(v int32) int { return score(vs, v) }
	}
	release = func() {
		for _, vs := range lent {
			p.Put(vs)
		}
		lent = nil
	}
	return newScore, release
}

// MeasurePools holds one ScorerPool per measure over one graph, indexed
// in AllMeasures order. Build one per graph and share it between every
// searcher and engine over that graph: each pooled scorer holds an
// n-sized extraction table.
type MeasurePools [3]*ScorerPool

// NewMeasurePools returns one empty pool per measure over g.
func NewMeasurePools(g *graph.Graph) MeasurePools {
	var ps MeasurePools
	for i, m := range AllMeasures() {
		ps[i] = NewScorerPool(g, m)
	}
	return ps
}

// Graph returns the graph every pool scores over.
func (ps MeasurePools) Graph() *graph.Graph { return ps[0].g }

// Of returns the pool of measure m ("" = truss).
func (ps MeasurePools) Of(m Measure) *ScorerPool {
	switch m.Normalize() {
	case MeasureComponent:
		return ps[1]
	case MeasureCore:
		return ps[2]
	}
	return ps[0]
}

// Graph returns the underlying graph.
func (s *VertexScorer) Graph() *graph.Graph { return s.g }

// Measure returns the measure this scorer computes.
func (s *VertexScorer) Measure() Measure { return s.m }

// Score returns score(v) w.r.t. threshold k under the scorer's measure.
func (s *VertexScorer) Score(v int32, k int32) int {
	net := ego.ExtractOneInto(&s.ego, s.g, v)
	switch s.m {
	case MeasureComponent:
		if len(net.Verts) == 0 {
			return 0
		}
		count := s.cc.label(net.G)
		score := 0
		for _, sz := range s.cc.sizes[:count] {
			if sz >= k {
				score++
			}
		}
		return score
	case MeasureCore:
		if net.G.M() == 0 {
			return 0
		}
		core := s.kc.DecomposeInto(net.G)
		return s.kc.CountComponents(net.G, core, k)
	default:
		if net.G.M() == 0 {
			return 0
		}
		tau := s.tr.DecomposeInto(net.G)
		return s.tr.CountComponents(net.G, tau, k)
	}
}

// Contexts returns the social contexts of v w.r.t. k as global vertex
// sets: canonical group order (by first member), members ascending —
// byte-identical to the measure's shared scorer. The returned groups are
// freshly allocated (they escape the scratch); the transients are not.
func (s *VertexScorer) Contexts(v int32, k int32) [][]int32 {
	net := ego.ExtractOneInto(&s.ego, s.g, v)
	switch s.m {
	case MeasureComponent:
		return s.compContexts(net, k)
	case MeasureCore:
		if net.G.M() == 0 {
			return nil
		}
		core := s.kc.DecomposeInto(net.G)
		return net.GlobalSets(s.kc.Components(net.G, core, k))
	default:
		if net.G.M() == 0 {
			return nil
		}
		tau := s.tr.DecomposeInto(net.G)
		return net.GlobalSets(s.tr.Components(net.G, tau, k))
	}
}

// compContexts is the component measure's contexts: the size->=k
// components of the ego-network in label order (ascending first member),
// already in global IDs — the Comp-Div model's exact output, flat-backed.
func (s *VertexScorer) compContexts(net *ego.Network, k int32) [][]int32 {
	if len(net.Verts) == 0 {
		return nil
	}
	count := s.cc.label(net.G)
	s.cc.qidx = growInt32(s.cc.qidx, count)
	total, nq := 0, 0
	for lbl, sz := range s.cc.sizes[:count] {
		if sz >= k {
			s.cc.qidx[lbl] = int32(nq)
			nq++
			total += int(sz)
		} else {
			s.cc.qidx[lbl] = -1
		}
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, 0, nq)
	for lbl, sz := range s.cc.sizes[:count] {
		if s.cc.qidx[lbl] >= 0 {
			start := len(flat)
			out = append(out, flat[start:start:start+int(sz)])
			flat = flat[:start+int(sz)]
		}
	}
	for lv, lbl := range s.cc.labels[:net.G.N()] {
		if qi := s.cc.qidx[lbl]; qi >= 0 {
			out[qi] = append(out[qi], net.Verts[lv])
		}
	}
	return out
}

// ScoresAllK computes score(v, k) for every k >= 2 from one ego
// decomposition, like the package-level ScoresAllK but over recycled
// storage: the returned slice is owned by s and valid only until the
// next call. nil when no threshold scores.
func (s *VertexScorer) ScoresAllK(v int32) []int {
	net := ego.ExtractOneInto(&s.ego, s.g, v)
	if net.G.M() == 0 {
		return nil
	}
	switch s.m {
	case MeasureComponent:
		s.allk = compAllK(&s.cc, net.G, s.allk)
	case MeasureCore:
		s.allk = coreAllK(&s.kc, net.G, s.allk)
	default:
		tau := s.tr.DecomposeInto(net.G)
		s.allk = trussAllK(&s.tr, net.G, tau, s.allk)
	}
	if len(s.allk) == 0 {
		return nil
	}
	return s.allk
}

// trussAllK fills dst[:0] with the truss measure's per-k score vector of
// the (already decomposed) local graph: dst[k] = k-truss component
// count, indexed 2..MaxTrussness. Empty when the decomposition reaches
// no threshold.
func trussAllK(ts *truss.Scratch, lg *graph.Graph, tau []int32, dst []int) []int {
	maxK := truss.MaxTrussness(tau)
	if maxK < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxK)+1)
	dst[0], dst[1] = 0, 0
	for k := int32(2); k <= maxK; k++ {
		dst[k] = ts.CountComponents(lg, tau, k)
	}
	return dst
}

// compAllK fills dst[:0] with the component measure's per-k vector: a
// size-s component counts toward every k <= s.
func compAllK(cs *compScratch, lg *graph.Graph, dst []int) []int {
	count := cs.label(lg)
	maxS := int32(0)
	for _, sz := range cs.sizes[:count] {
		if sz > maxS {
			maxS = sz
		}
	}
	if maxS < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxS)+1)
	for i := range dst {
		dst[i] = 0
	}
	for _, sz := range cs.sizes[:count] {
		for k := int32(2); k <= sz; k++ {
			dst[k]++
		}
	}
	return dst
}

// coreAllK fills dst[:0] with the core measure's per-k vector:
// dst[k] = maximal connected k-core count, indexed 2..degeneracy.
func coreAllK(ks *kcore.Scratch, lg *graph.Graph, dst []int) []int {
	core := ks.DecomposeInto(lg)
	maxC := kcore.Degeneracy(core)
	if maxC < 2 {
		return dst[:0]
	}
	dst = growInts(dst, int(maxC)+1)
	dst[0], dst[1] = 0, 0
	for k := int32(2); k <= maxC; k++ {
		dst[k] = ks.CountComponents(lg, core, k)
	}
	return dst
}

// compScratch labels the connected components of a local graph into
// recycled storage: labels[v] in 0..count-1 assigned in ascending order
// of each component's smallest vertex (the ConnectedComponents order),
// sizes[c] the member count.
type compScratch struct {
	labels []int32
	sizes  []int32
	stack  []int32
	qidx   []int32
}

func (s *compScratch) label(lg *graph.Graph) int {
	n := lg.N()
	s.labels = growInt32(s.labels, n)
	labels := s.labels
	for i := range labels {
		labels[i] = -1
	}
	s.sizes = s.sizes[:0]
	count := 0
	for v := int32(0); int(v) < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = int32(count)
		size := int32(1)
		s.stack = append(s.stack[:0], v)
		for len(s.stack) > 0 {
			u := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			for _, w := range lg.Neighbors(u) {
				if labels[w] < 0 {
					labels[w] = int32(count)
					size++
					s.stack = append(s.stack, w)
				}
			}
		}
		s.sizes = append(s.sizes, size)
		count++
	}
	return count
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
