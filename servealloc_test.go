package trussdiv_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"trussdiv"
	"trussdiv/internal/gen"
	"trussdiv/internal/testutil"
)

// The serving paths score through scorers pooled for the life of the
// graph. Each pooled scorer holds an n-sized extraction table, so a path
// that built a scorer per call would allocate O(n) bytes per call. This
// file pins that the steady-state bytes per call do not grow with n: the
// same calls, on the same ego-networks, cost the same on a graph and on
// its disjoint double.

// bytesPerCall returns the mean heap bytes one call of f allocates once
// warm. The collector is off for the measurement so that pooled scratch
// is not dropped halfway through, and one P runs it: a sync.Pool keeps a
// private item per P, so a call that moved to another P would miss the
// pool once and charge a whole scorer to the path.
func bytesPerCall(runs int, f func(i int)) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// servingCalls names one closure per serving path, each cycling over the
// query vertices.
func servingCalls(t *testing.T, db *trussdiv.DB, verts []int32) map[string]func(i int) {
	ctx := context.Background()
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	calls := map[string]func(i int){}
	for _, m := range []trussdiv.Measure{trussdiv.MeasureComponent, trussdiv.MeasureCore} {
		calls["ScoreMeasure/"+string(m)] = func(i int) {
			_, err := db.ScoreMeasure(ctx, verts[i%len(verts)], 3, m)
			check(err)
		}
		calls["ContextsMeasure/"+string(m)] = func(i int) {
			_, err := db.ContextsMeasure(ctx, verts[i%len(verts)], 3, m)
			check(err)
		}
	}
	calls["TopR/hybrid"] = func(i int) {
		// The hybrid rankings are prepared; each call reads a prefix and
		// recovers the answer vertices' contexts.
		cands := append(verts[i%len(verts):], verts[:i%len(verts)]...)
		_, _, err := db.TopR(ctx, trussdiv.Query{
			K: 3, R: 5, Engine: "hybrid", Candidates: cands,
			IncludeContexts: true, Workers: 1,
		})
		check(err)
	}
	for _, m := range trussdiv.AllMeasures() {
		calls["ScorePFree/"+string(m)] = func(i int) {
			_, err := db.ScorePFree(ctx, verts[i%len(verts)], m)
			check(err)
		}
		calls["ContextsPFree/"+string(m)] = func(i int) {
			_, err := db.ContextsPFree(ctx, verts[i%len(verts)], m)
			check(err)
		}
		calls["TopR/online/"+string(m)] = func(i int) {
			// Rotate the candidate set so no two consecutive queries are
			// the same (the result cache is off anyway).
			cands := append(verts[i%len(verts):], verts[:i%len(verts)]...)
			_, _, err := db.TopR(ctx, trussdiv.Query{
				K: 3, R: 5, Measure: m, Engine: "online", Candidates: cands,
				IncludeContexts: true, Workers: 1,
			})
			check(err)
		}
	}
	return calls
}

// TestServingBytesPerCallFlatInN compares every serving path's steady
// bytes per call on an overlay graph and on two disjoint copies of it,
// querying the same vertices of the first copy: identical ego-networks,
// twice the vertex count.
func TestServingBytesPerCallFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under the race detector")
	}
	base := gen.CommunityOverlay(gen.OverlayConfig{
		N: 8000, Attach: 4, Cliques: 1000, MinSize: 4, MaxSize: 12,
		Window: 200, AnchorBias: 0.5, Seed: testutil.Seed(t, 5),
	})
	double := gen.DisjointUnion(base, base)
	// The query vertices: the 16 largest ego-networks of the first copy.
	verts := make([]int32, base.N())
	for v := range verts {
		verts[v] = int32(v)
	}
	sort.SliceStable(verts, func(i, j int) bool { return base.Degree(verts[i]) > base.Degree(verts[j]) })
	verts = verts[:16]

	measure := func(g *trussdiv.Graph) map[string]float64 {
		db, err := trussdiv.Open(g, trussdiv.WithResultCache(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Prepare(context.Background(), "hybrid"); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for name, call := range servingCalls(t, db, verts) {
			out[name] = bytesPerCall(4*len(verts), call)
		}
		return out
	}
	small, large := measure(base), measure(double)
	// A scorer built per call would add 4 bytes per vertex of the larger
	// graph to every call; allow a small fraction of that for the odd
	// sync.Pool miss.
	slack := float64(base.N()) / 4
	for name, b := range small {
		if large[name] > b+slack {
			t.Errorf("%s: %.0f B/call at n=%d, %.0f B/call at n=%d: allocation grows with n",
				name, b, base.N(), large[name], double.N())
		} else {
			t.Logf("%s: %.0f B/call at n=%d, %.0f at n=%d", name, b, base.N(), large[name], double.N())
		}
	}
}
