package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/testutil"
)

// roundContaining returns the size of the parallel ranked-scan round
// (see scanRanked) that covers candidate position pos.
func roundContaining(pos, r, workers int) int {
	limit := workers * rankedChunkPerWorker
	lo, round := 0, max(1, min(r, limit))
	for lo+round <= pos {
		lo, round = lo+round, nextRankedRound(round, limit)
	}
	return round
}

// TestRankedScanWorkBound pins the work bound of the parallel ranked
// scan: for every worker count the answer equals the serial one, and
// the number of scores is at most the serial count plus the size of the
// round in which the serial scan stopped.
func TestRankedScanWorkBound(t *testing.T) {
	rng := testutil.Rand(t, 42)
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(3000)
		cands := make([]rankedCand, n)
		scores := make([]int, n)
		for i := range cands {
			ub := rng.Intn(1 + rng.Intn(60))
			cands[i] = rankedCand{v: int32(i), ub: ub}
			scores[i] = rng.Intn(ub + 1)
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].ub != cands[j].ub {
				return cands[i].ub > cands[j].ub
			}
			return cands[i].v < cands[j].v
		})
		r := 1 + rng.Intn(80)
		newScore := func() func(v int32) int {
			return func(v int32) int { return scores[v] }
		}
		want, serial, err := scanRanked(ctx, cands, r, 1, newScore)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			got, scored, err := scanRanked(ctx, cands, r, w, newScore)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answer(), want.Answer()) {
				t.Fatalf("trial %d (n=%d r=%d) workers %d: answer differs from serial", trial, n, r, w)
			}
			if bound := serial + roundContaining(serial, r, w); scored > bound {
				t.Fatalf("trial %d (n=%d r=%d) workers %d: scored %d, serial %d, bound %d",
					trial, n, r, w, scored, serial, bound)
			}
		}
	}
}

// TestBoundSearchWorkBoundAcrossWorkers is the same bound through the
// Bound engine, for every measure, on a graph large enough that the
// parallel scan runs several rounds.
func TestBoundSearchWorkBoundAcrossWorkers(t *testing.T) {
	rng := testutil.Rand(t, 1201)
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 1500, Attach: 3, Cliques: 200, MinSize: 4, MaxSize: 10, Seed: rng.Int63(),
	})
	b := NewBound(g)
	for _, m := range AllMeasures() {
		for _, r := range []int{1, 5, 40} {
			p := Params{K: 3, R: r, Measure: m, Workers: 1}
			want, wantStats, err := b.Search(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			serial := wantStats.ScoreComputations
			for _, w := range []int{1, 2, 4, 8} {
				p.Workers = w
				got, stats, err := b.Search(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d workers %d: result differs from serial", m, r, w)
				}
				if bound := serial + roundContaining(serial, r, w); stats.ScoreComputations > bound {
					t.Fatalf("%s r=%d workers %d: scored %d, serial %d, bound %d",
						m, r, w, stats.ScoreComputations, serial, bound)
				}
			}
		}
	}
}
