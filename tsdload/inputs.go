package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/truss"
)

// genGraph builds the benchmark graph for one seed: the gowalla-sim shape
// (power-law backbone plus planted cliques of 4-14 members), about 190k
// edges at n = 25000. Smaller n scales the clique and diffuse counts
// with it, which the benchmark's own test uses.
func genGraph(n int, seed int64) *graph.Graph {
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: n, Attach: 4, Cliques: n * 3000 / 25000, MinSize: 4, MaxSize: 14,
		Window: 250, AnchorBias: 0.5, Diffuse: n * 500 / 25000, Seed: seed,
	})
}

// cloneGraph returns a structurally equal graph with no memoized state
// (fingerprint), so a timed set-up pays what a freshly started process
// would.
func cloneGraph(g *graph.Graph) *graph.Graph {
	c, err := graph.FromEdges(g.N(), g.Edges())
	if err != nil {
		panic(err) // unreachable: the edges come from a valid graph
	}
	return c
}

// fingerprint describes the generated input so runs on different seeds
// can be checked for comparability.
type fingerprint struct {
	N         int   `json:"n"`
	M         int   `json:"m"`
	Triangles int64 `json:"triangles"`
	MaxTruss  int32 `json:"max_trussness"`
}

func fingerprintOf(g *graph.Graph) fingerprint {
	tau, sup := truss.DecomposeFull(g, 0)
	var tri int64
	for _, s := range sup {
		tri += int64(s)
	}
	return fingerprint{N: g.N(), M: g.M(), Triangles: tri / 3, MaxTruss: truss.MaxTrussness(tau)}
}

// The request model.

type kind uint8

const (
	kindTopR kind = iota
	kindScore
	kindContexts
	kindBatch
	numKinds
)

var kindNames = [numKinds]string{"topr", "score", "contexts", "batch"}

// query is one top-r query; K == 0 is parameter-free.
type query struct {
	K        int32   `json:"k"`
	R        int     `json:"r"`
	Measure  string  `json:"measure,omitempty"`
	Contexts bool    `json:"contexts,omitempty"`
	Cands    []int32 `json:"candidates,omitempty"`
}

// request is one HTTP request of the read mix.
type request struct {
	kind    kind
	q       query   // kindTopR
	batch   []query // kindBatch
	v, k    int32   // kindScore, kindContexts (k == 0: parameter-free)
	measure string  // kindScore, kindContexts
}

// path renders the GET target of a top-r or point request.
func (r *request) path() string {
	switch r.kind {
	case kindTopR:
		return "/topr?" + r.q.values().Encode()
	case kindScore, kindContexts:
		vals := url.Values{}
		vals.Set("v", strconv.Itoa(int(r.v)))
		if r.k != 0 {
			vals.Set("k", strconv.Itoa(int(r.k)))
		}
		vals.Set("measure", r.measure)
		return "/" + kindNames[r.kind] + "?" + vals.Encode()
	}
	panic("path: not a GET request")
}

func (q query) values() url.Values {
	vals := url.Values{}
	if q.K != 0 {
		vals.Set("k", strconv.Itoa(int(q.K)))
	}
	vals.Set("r", strconv.Itoa(q.R))
	vals.Set("measure", q.Measure)
	if q.Contexts {
		vals.Set("contexts", "true")
	}
	if len(q.Cands) > 0 {
		parts := make([]string, len(q.Cands))
		for i, v := range q.Cands {
			parts[i] = strconv.Itoa(int(v))
		}
		vals.Set("candidates", strings.Join(parts, ","))
	}
	return vals
}

// key identifies a cacheable query (no candidates).
func (q query) key() string {
	return fmt.Sprintf("%s/%d/%d/%t", q.Measure, q.K, q.R, q.Contexts)
}

var allMeasures = []string{"truss", "component", "core"}

// mix is a workload's share of each request kind; the shares sum to 1.
type mix [numKinds]float64

// space holds what every client of one run shares: the vertex
// permutation the Zipf draws index (low ids are the preferential
// attachment hubs, so raw ids would hit only hubs) and the permuted
// top-r key space.
//
// Both popularity orders are part of the workload's definition and come
// from a fixed seed, as does the graph (graphSeed); the run's seed draws
// the request streams, the candidate sets and the update batches. With
// seeded orders, which hub or which heavy key happens to rank first would
// move the medians between seeds by more than any bound could absorb.
type space struct {
	wl    string
	n     int
	mix   mix
	vperm []int32
	keys  []query
}

// Top-r key space: {truss, component, core} x {k-less, k=3..8} x
// r in [1,200] x {contexts, none} — 8400 keys, about 16x the 512-entry
// result cache.
const maxKeyR = 200

// orderSeed seeds the popularity orders.
const orderSeed = 1

// graphSeed seeds the benchmark graph. The graph is part of the
// workload's definition, like the popularity orders: on graphs drawn per
// run seed, the size of the largest hubs' ego networks moved topr_p90_ms,
// batch_p50_ms and read_qps on serve-warm by about 0.3 of their median
// between seeds, against about 0.14 between runs of one seed.
const graphSeed = 1

func newSpace(wl string, n int) *space {
	rng := rand.New(rand.NewSource(orderSeed))
	s := &space{wl: wl, n: n, vperm: make([]int32, n)}
	for i, p := range rng.Perm(n) {
		s.vperm[i] = int32(p)
	}
	for _, m := range allMeasures {
		for _, k := range []int32{0, 3, 4, 5, 6, 7, 8} {
			for r := 1; r <= maxKeyR; r++ {
				for _, c := range []bool{false, true} {
					s.keys = append(s.keys, query{K: k, R: r, Measure: m, Contexts: c})
				}
			}
		}
	}
	rng.Shuffle(len(s.keys), func(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] })
	switch wl {
	case wlScanCold:
		s.mix = mix{kindTopR: 0.4, kindScore: 0.2, kindContexts: 0.2, kindBatch: 0.2}
	default:
		s.mix = mix{kindTopR: 0.45, kindScore: 0.2, kindContexts: 0.2, kindBatch: 0.15}
	}
	return s
}

// generator draws one client's request stream; streams differ per client
// and repeat exactly for the same seed.
type generator struct {
	s     *space
	rng   *rand.Rand
	vzipf *rand.Zipf
	kzipf *rand.Zipf
	seen  map[int32]bool
}

func (s *space) generator(seed int64, stream int) *generator {
	rng := rand.New(rand.NewSource(seed*7919 + int64(stream) + 1))
	return &generator{
		s:     s,
		rng:   rng,
		vzipf: rand.NewZipf(rng, 1.1, 1, uint64(s.n-1)),
		kzipf: rand.NewZipf(rng, 1.1, 1, uint64(len(s.keys)-1)),
		seen:  make(map[int32]bool),
	}
}

func (g *generator) pickKind() kind {
	x := g.rng.Float64()
	for k := kind(0); k < numKinds; k++ {
		if x < g.s.mix[k] {
			return k
		}
		x -= g.s.mix[k]
	}
	return kindTopR
}

func (g *generator) next() request {
	k := g.pickKind()
	if g.s.wl == wlScanCold {
		return g.nextScan(k)
	}
	req := request{kind: k}
	switch k {
	case kindTopR:
		req.q = g.s.keys[g.kzipf.Uint64()]
	case kindBatch:
		req.batch = make([]query, 8)
		for i := range req.batch {
			req.batch[i] = g.s.keys[g.kzipf.Uint64()]
		}
	default:
		req.v = g.s.vperm[g.vzipf.Uint64()]
		req.k = []int32{0, 3, 4, 5, 6, 7, 8}[g.rng.Intn(7)]
		req.measure = allMeasures[g.rng.Intn(3)]
	}
	return req
}

// nextScan draws a scan-cold request: fresh candidate sets, so the result
// cache never hits, under the component and core measures.
func (g *generator) nextScan(k kind) request {
	req := request{kind: k}
	scanQuery := func(lo, hi int) query {
		return query{
			K:        int32(3 + g.rng.Intn(6)),
			R:        1 + g.rng.Intn(100),
			Measure:  allMeasures[1+g.rng.Intn(2)],
			Contexts: true,
			Cands:    g.candidates(lo, hi),
		}
	}
	switch k {
	case kindTopR:
		req.q = scanQuery(200, 2000)
	case kindBatch:
		req.batch = make([]query, 8)
		for i := range req.batch {
			req.batch[i] = scanQuery(25, 250)
		}
	default:
		req.v = int32(g.rng.Intn(g.s.n))
		req.k = int32(3 + g.rng.Intn(6))
		req.measure = allMeasures[1+g.rng.Intn(2)]
	}
	return req
}

// candidates draws a uniform candidate set of lo..hi distinct vertices
// (capped at half the graph for small test graphs).
func (g *generator) candidates(lo, hi int) []int32 {
	hi = min(hi, g.s.n/2)
	lo = min(lo, hi)
	size := lo + g.rng.Intn(hi-lo+1)
	clear(g.seen)
	out := make([]int32, 0, size)
	for len(out) < size {
		v := int32(g.rng.Intn(g.s.n))
		if !g.seen[v] {
			g.seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// edgeState tracks the evolving edge set so every generated update batch
// is valid: inserts of absent edges, deletes of present ones.
type edgeState struct {
	base *graph.Graph // adjacency for friend-of-friend inserts
	rng  *rand.Rand
	idx  map[graph.Edge]int // present edge -> position in list
	list []graph.Edge
}

func newEdgeState(g *graph.Graph, seed int64) *edgeState {
	s := &edgeState{
		base: g,
		rng:  rand.New(rand.NewSource(seed*31 + 17)),
		idx:  make(map[graph.Edge]int, g.M()),
		list: make([]graph.Edge, 0, g.M()),
	}
	for _, e := range g.Edges() {
		s.add(canon(e))
	}
	return s
}

func canon(e graph.Edge) graph.Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

func (s *edgeState) add(e graph.Edge) {
	s.idx[e] = len(s.list)
	s.list = append(s.list, e)
}

func (s *edgeState) remove(e graph.Edge) {
	i := s.idx[e]
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.idx[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.idx, e)
}

// nextBatch draws 4 inserts and 4 deletes. Inserts close a triangle in
// the base graph (a friend-of-friend link, as social graphs grow), so
// they exercise truss repair rather than adding isolated edges.
func (s *edgeState) nextBatch() (ins, del []graph.Edge) {
	used := make(map[graph.Edge]bool, 8)
	for len(ins) < 4 {
		u := int32(s.rng.Intn(s.base.N()))
		nu := s.base.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		w := nu[s.rng.Intn(len(nu))]
		nw := s.base.Neighbors(w)
		v := nw[s.rng.Intn(len(nw))]
		e := canon(graph.Edge{U: u, V: v})
		if u == v || used[e] {
			continue
		}
		if _, present := s.idx[e]; present {
			continue
		}
		used[e] = true
		ins = append(ins, e)
	}
	for len(del) < 4 {
		e := s.list[s.rng.Intn(len(s.list))]
		if used[e] {
			continue
		}
		used[e] = true
		del = append(del, e)
	}
	return ins, del
}

// commit records an applied batch.
func (s *edgeState) commit(ins, del []graph.Edge) {
	for _, e := range del {
		s.remove(e)
	}
	for _, e := range ins {
		s.add(e)
	}
}
