package core

import (
	"context"

	"trussdiv/internal/graph"
)

// Online is the baseline searcher (paper Algorithm 3): it computes the
// structural diversity of every candidate vertex from scratch and keeps
// the best r. It borrows its scorers from one ScorerPool per measure
// that lives as long as the searcher, so repeated searches reuse the
// scan workers' scratch.
type Online struct {
	g     *graph.Graph
	pools MeasurePools
}

// NewOnline returns an Online searcher over g with pools of its own.
func NewOnline(g *graph.Graph) *Online { return NewOnlineWith(NewMeasurePools(g)) }

// NewOnlineWith returns an Online searcher over the pools' graph that
// borrows its scorers from pools, which other searchers and engines over
// the same graph may share.
func NewOnlineWith(pools MeasurePools) *Online { return &Online{g: pools.Graph(), pools: pools} }

// Graph returns the underlying graph.
func (o *Online) Graph() *graph.Graph { return o.g }

// TopR returns the r vertices with the highest truss-based structural
// diversity w.r.t. k, together with their social contexts.
func (o *Online) TopR(k int32, r int) (*Result, *Stats, error) {
	return o.Search(context.Background(), Params{K: k, R: r})
}

// Search runs Algorithm 3 over the candidate set, sharded across
// p.Workers goroutines; every worker borrows one VertexScorer from the
// measure's pool for the length of the scan, so the scan is
// allocation-free in steady state and byte-identical to the serial
// order. Context recovery borrows from the same pool. Each candidate
// costs one ego-network decomposition, so cancellation is checked before
// every score computation. The search is measure-generic: p.Measure
// swaps the truss pool for the component-based or core-based one, same
// scan either way.
func (o *Online) Search(ctx context.Context, p Params) (*Result, *Stats, error) {
	p, err := p.normalized(o.g.N())
	if err != nil {
		return nil, nil, err
	}
	pool := o.pools.Of(p.Measure)
	newScore, release := pool.ScanWorkers(func(vs *VertexScorer, v int32) int { return vs.Score(v, p.K) })
	heap, scored, err := scanTopR(ctx, o.g.N(), p.Candidates, p.R, p.workers(), true, newScore)
	release()
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{ScoreComputations: scored, Candidates: scored}
	res, err := finishResult(ctx, heap.Answer(), p, func(v int32) [][]int32 {
		return pool.Contexts(v, p.K)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, exportStats(stats, p), nil
}
