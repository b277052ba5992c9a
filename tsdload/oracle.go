package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"trussdiv"
	"trussdiv/internal/core"
	"trussdiv/internal/graph"
	"trussdiv/internal/pfree"
)

// Oracle budgets: full-graph online recomputations cost ~0.2-0.4 s each
// at the benchmark's size (plus a cache-less DB per epoch under writes),
// so only a few sampled full-graph answers are recomputed; candidate-set
// and point answers are cheap.
const (
	maxFullTopRChecks = 4
	maxCandTopRChecks = 40
	maxPointChecks    = 160
	maxPointEpochs    = 8
)

// oracle recomputes sampled answers independently of the serving path.
// Top-r answers are recomputed with the online engine pinned (pfree for
// k-less queries) on a cache-less DB; point answers with a fresh
// core.VertexScorer (pfree.ScoreAt/ContextsAt when k-less). Under writes,
// an answer is recomputed on the graph rebuilt at its epoch from the
// recorded batches. On the cluster tier the reference is a single node
// and answers must be byte-equal to it.
type oracle struct {
	g0      *graph.Graph
	e0      uint64
	batches []appliedBatch // in epoch order
	graphs  map[uint64]*graph.Graph
	refs    map[uint64]*trussdiv.DB
	single  *trussdiv.DB // cluster tier: the single-node reference
	checked int
	bad     int
	errs    []string
}

func newOracle(g0 *graph.Graph, e0 uint64) *oracle {
	return &oracle{g0: g0, e0: e0, graphs: map[uint64]*graph.Graph{e0: g0}, refs: map[uint64]*trussdiv.DB{}}
}

func (o *oracle) mismatch(format string, args ...any) {
	o.bad++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// graphAt rebuilds the graph at epoch e from the recorded batches.
func (o *oracle) graphAt(e uint64) (*graph.Graph, error) {
	if g, ok := o.graphs[e]; ok {
		return g, nil
	}
	// Start from the newest cached graph below e.
	base, g := o.e0, o.g0
	for ce, cg := range o.graphs {
		if ce < e && ce > base {
			base, g = ce, cg
		}
	}
	for _, b := range o.batches {
		if b.epoch <= base || b.epoch > e {
			continue
		}
		var err error
		if g, err = core.ApplyEdits(g, b.ins, b.del); err != nil {
			return nil, fmt.Errorf("replay batch at epoch %d: %w", b.epoch, err)
		}
		base = b.epoch
	}
	if base != e {
		return nil, fmt.Errorf("no recorded batch reaches epoch %d", e)
	}
	o.graphs[e] = g
	return g, nil
}

func (o *oracle) refAt(e uint64) (*trussdiv.DB, error) {
	if db, ok := o.refs[e]; ok {
		return db, nil
	}
	g, err := o.graphAt(e)
	if err != nil {
		return nil, err
	}
	db, err := trussdiv.Open(g, trussdiv.WithResultCache(0))
	if err != nil {
		return nil, err
	}
	o.refs[e] = db
	return db, nil
}

// wireResult is one entry of a top-r answer on the wire.
type wireResult struct {
	Vertex   int32     `json:"vertex"`
	Score    int       `json:"score"`
	Contexts [][]int32 `json:"contexts,omitempty"`
}

type wireTopR struct {
	Epoch   uint64       `json:"epoch"`
	Results []wireResult `json:"results"`
}

type wirePoint struct {
	Score    int       `json:"score"`
	Contexts [][]int32 `json:"contexts"`
}

func (q query) toQuery() trussdiv.Query {
	return trussdiv.Query{K: q.K, R: q.R, Measure: trussdiv.Measure(q.Measure),
		IncludeContexts: q.Contexts, Candidates: q.Cands}
}

// expectTopR recomputes q at epoch e.
func (o *oracle) expectTopR(q query, e uint64) ([]wireResult, error) {
	tq := q.toQuery()
	var res *trussdiv.Result
	var err error
	if o.single != nil {
		res, _, err = o.single.TopR(context.Background(), tq)
	} else {
		var ref *trussdiv.DB
		if ref, err = o.refAt(e); err != nil {
			return nil, err
		}
		tq.Engine = "online"
		if q.K == 0 {
			tq.Engine = "pfree"
		}
		res, _, err = ref.TopR(context.Background(), tq)
	}
	if err != nil {
		return nil, err
	}
	out := make([]wireResult, len(res.TopR))
	for i, vs := range res.TopR {
		out[i] = wireResult{Vertex: vs.V, Score: vs.Score}
		if q.Contexts {
			out[i].Contexts = res.Contexts[vs.V]
		}
	}
	return out, nil
}

// checkTopR checks one top-r answer body; epoch 0 takes the answer's own.
func (o *oracle) checkTopR(q query, got wireTopR) {
	o.checked++
	e := got.Epoch
	if e == 0 {
		e = o.e0
	}
	want, err := o.expectTopR(q, e)
	if err != nil {
		o.mismatch("topr %s: reference: %v", q.key(), err)
		return
	}
	if !sameResults(got.Results, want, o.single != nil) {
		o.mismatch("topr %s (%d candidates) at epoch %d: answer differs from the reference", q.key(), len(q.Cands), e)
	}
}

// sameResults compares two answers: byte-equal encodings when strict,
// otherwise equal up to the order of contexts and their members (engines
// may list a vertex's contexts differently).
func sameResults(got, want []wireResult, strict bool) bool {
	if !strict {
		got, want = canonical(got), canonical(want)
	}
	a, err1 := json.Marshal(got)
	b, err2 := json.Marshal(want)
	return err1 == nil && err2 == nil && bytes.Equal(a, b)
}

func canonical(rs []wireResult) []wireResult {
	out := make([]wireResult, len(rs))
	for i, r := range rs {
		out[i] = wireResult{Vertex: r.Vertex, Score: r.Score, Contexts: canonicalSets(r.Contexts)}
	}
	return out
}

func canonicalSets(sets [][]int32) [][]int32 {
	if len(sets) == 0 {
		return nil
	}
	out := make([][]int32, len(sets))
	for i, s := range sets {
		out[i] = slices.Clone(s)
		slices.Sort(out[i])
	}
	slices.SortFunc(out, slices.Compare[[]int32])
	return out
}

// checkPoint checks one /score or /contexts answer at epoch e.
func (o *oracle) checkPoint(req request, got wirePoint, e uint64) {
	o.checked++
	m := trussdiv.Measure(req.measure)
	var score int
	var contexts [][]int32
	switch {
	case o.single != nil:
		ctx := context.Background()
		var err error
		if req.kind == kindScore && req.k == 0 {
			score, err = o.single.ScorePFree(ctx, req.v, m)
		} else if req.kind == kindScore {
			score, err = o.single.ScoreMeasure(ctx, req.v, req.k, m)
		} else if req.k == 0 {
			contexts, err = o.single.ContextsPFree(ctx, req.v, m)
		} else {
			contexts, err = o.single.ContextsMeasure(ctx, req.v, req.k, m)
		}
		if err != nil {
			o.mismatch("%s v=%d: reference: %v", kindNames[req.kind], req.v, err)
			return
		}
	default:
		g, err := o.graphAt(e)
		if err != nil {
			o.mismatch("%s v=%d: %v", kindNames[req.kind], req.v, err)
			return
		}
		if req.k == 0 {
			score, contexts = pfree.ScoreAt(g, req.v, m), pfree.ContextsAt(g, req.v, m)
		} else {
			vs := core.NewVertexScorer(g, m)
			score, contexts = vs.Score(req.v, req.k), vs.Contexts(req.v, req.k)
		}
	}
	if req.kind == kindContexts {
		score = len(contexts)
		if !slices.EqualFunc(canonicalSets(got.Contexts), canonicalSets(contexts), slices.Equal[[]int32]) {
			o.mismatch("contexts v=%d k=%d %s at epoch %d: contexts differ from the reference", req.v, req.k, req.measure, e)
			return
		}
	}
	if got.Score != score {
		o.mismatch("%s v=%d k=%d %s at epoch %d: score %d, reference %d", kindNames[req.kind], req.v, req.k, req.measure, e, got.Score, score)
	}
}

// checkAnswers runs the oracle over the answers a window kept. Under
// writes, point answers with unknown epoch are skipped, and point answers
// are checked at no more than maxPointEpochs epochs: each needs its
// graph rebuilt.
func (o *oracle) checkAnswers(answers []answer, underWrites bool) {
	full, cand, points := 0, 0, 0
	epochs := map[uint64]bool{}
	topr := func(q query, got wireTopR) {
		if len(q.Cands) > 0 {
			if cand >= maxCandTopRChecks {
				return
			}
			cand++
		} else if o.single == nil {
			if full >= maxFullTopRChecks {
				return
			}
			full++
		}
		o.checkTopR(q, got)
	}
	for _, a := range answers {
		switch a.req.kind {
		case kindTopR:
			var got wireTopR
			if err := json.Unmarshal(a.body, &got); err != nil {
				o.mismatch("topr: decode: %v", err)
				continue
			}
			topr(a.req.q, got)
		case kindBatch:
			var got struct {
				Results []wireTopR `json:"results"`
			}
			if err := json.Unmarshal(a.body, &got); err != nil || len(got.Results) != len(a.req.batch) {
				o.mismatch("batch: decode: %v (%d results for %d queries)", err, len(got.Results), len(a.req.batch))
				continue
			}
			for i, q := range a.req.batch {
				topr(q, got.Results[i])
			}
		default:
			if points >= maxPointChecks || (underWrites && a.epoch == 0) {
				continue
			}
			if underWrites && !epochs[a.epoch] {
				if len(epochs) >= maxPointEpochs {
					continue
				}
				epochs[a.epoch] = true
			}
			points++
			var got wirePoint
			if err := json.Unmarshal(a.body, &got); err != nil {
				o.mismatch("%s: decode: %v", kindNames[a.req.kind], err)
				continue
			}
			e := a.epoch
			if e == 0 {
				e = o.e0
			}
			o.checkPoint(a.req, got, e)
		}
	}
}
