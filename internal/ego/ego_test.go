package ego

import (
	"slices"
	"testing"

	"trussdiv/internal/gen"
	"trussdiv/internal/graph"
	"trussdiv/internal/testutil"
)

func randomGraph(tb testing.TB, n, extra int, seed int64) *graph.Graph {
	rng := testutil.Rand(tb, seed)
	b := graph.NewBuilder(n)
	for i := 0; i < extra; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// egoViaInduced is the reference: Def. 1 literally, via InducedSubgraph.
func egoViaInduced(g *graph.Graph, v int32) (*graph.Graph, []int32) {
	return g.InducedSubgraph(g.Neighbors(v))
}

func sameGraph(t *testing.T, got, want *graph.Graph, label string) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: N,M = %d,%d want %d,%d", label, got.N(), got.M(), want.N(), want.M())
	}
	for id := int32(0); int(id) < want.M(); id++ {
		e := want.Edge(id)
		if !got.HasEdge(e.U, e.V) {
			t.Fatalf("%s: missing edge (%d,%d)", label, e.U, e.V)
		}
	}
}

func TestExtractOneMatchesInduced(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 30, 140, seed)
		for v := int32(0); int(v) < g.N(); v++ {
			net := ExtractOne(g, v)
			want, l2g := egoViaInduced(g, v)
			if len(net.Verts) != len(l2g) {
				t.Fatalf("seed %d v %d: vertex count mismatch", seed, v)
			}
			sameGraph(t, net.G, want, "ExtractOne")
		}
	}
}

func TestExtractAllMatchesExtractOne(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 35, 180, seed+50)
		all := ExtractAll(g)
		for v := int32(0); int(v) < g.N(); v++ {
			one := ExtractOne(g, v)
			batch := all.Network(v)
			if all.EdgeCount(v) != one.G.M() {
				t.Fatalf("seed %d v %d: EdgeCount %d != m_v %d",
					seed, v, all.EdgeCount(v), one.G.M())
			}
			sameGraph(t, batch.G, one.G, "ExtractAll")
		}
	}
}

func TestFig1EgoOfV(t *testing.T) {
	g := gen.Fig1Graph()
	net := ExtractOne(g, gen.Fig1V)
	if len(net.Verts) != 14 {
		t.Fatalf("|N(v)| = %d, want 14", len(net.Verts))
	}
	// 6 + 6 clique edges + 2 bridges + 12 octahedron edges.
	if net.G.M() != 26 {
		t.Fatalf("ego edges = %d, want 26", net.G.M())
	}
	// s1, s2 are not neighbors of v.
	if net.Local(gen.Fig1S1) != -1 || net.Local(gen.Fig1S2) != -1 {
		t.Fatal("outsiders leaked into the ego-network")
	}
	// Local/Global round-trip.
	for l := int32(0); int(l) < len(net.Verts); l++ {
		if net.Local(net.Global(l)) != l {
			t.Fatalf("Local(Global(%d)) != %d", l, l)
		}
	}
}

func TestFig1EgoOfX1(t *testing.T) {
	g := gen.Fig1Graph()
	net := ExtractOne(g, gen.Fig1X1)
	// N(x1) = {v, x2, x3, x4, s1}.
	if len(net.Verts) != 5 {
		t.Fatalf("|N(x1)| = %d, want 5", len(net.Verts))
	}
	// Edges: v-x2, v-x3, v-x4, x2-x3, x2-x4, x3-x4, s1-x3.
	if net.G.M() != 7 {
		t.Fatalf("ego edges = %d, want 7", net.G.M())
	}
}

func TestGlobalSets(t *testing.T) {
	g := gen.Fig1Graph()
	net := ExtractOne(g, gen.Fig1V)
	lx1 := net.Local(gen.Fig1X1)
	ly1 := net.Local(gen.Fig1Y1)
	out := net.GlobalSets([][]int32{{lx1, ly1}})
	if len(out) != 1 || out[0][0] != gen.Fig1X1 || out[0][1] != gen.Fig1Y1 {
		t.Fatalf("GlobalSets = %v", out)
	}
}

func TestEgoOfIsolatedAndLeaf(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // 2, 3 isolated... 3 isolated
	b.AddEdge(1, 2)
	g := b.Build()
	net := ExtractOne(g, 3)
	if len(net.Verts) != 0 || net.G.M() != 0 {
		t.Fatal("isolated vertex should have empty ego-network")
	}
	net = ExtractOne(g, 0)
	if len(net.Verts) != 1 || net.G.M() != 0 {
		t.Fatal("leaf ego-network should be a single isolated vertex")
	}
}

// TestExtractOneIntoMatchesExtractOne pins the scratch contract: one
// Scratch reused across every vertex (with stale state from prior,
// larger ego-networks) extracts networks identical to the fresh
// allocate-path extraction.
func TestExtractOneIntoMatchesExtractOne(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 30, 140, seed+100)
		var s Scratch
		// Two sweeps: descending then ascending, so the reused scratch
		// shrinks and grows across calls.
		order := make([]int32, 0, 2*g.N())
		for v := int32(g.N()) - 1; v >= 0; v-- {
			order = append(order, v)
		}
		for v := int32(0); int(v) < g.N(); v++ {
			order = append(order, v)
		}
		for _, v := range order {
			got := ExtractOneInto(&s, g, v)
			want := ExtractOne(g, v)
			if got.Center != want.Center || len(got.Verts) != len(want.Verts) {
				t.Fatalf("seed %d v %d: header mismatch", seed, v)
			}
			for i := range want.Verts {
				if got.Verts[i] != want.Verts[i] {
					t.Fatalf("seed %d v %d: Verts[%d] = %d, want %d",
						seed, v, i, got.Verts[i], want.Verts[i])
				}
			}
			sameGraph(t, got.G, want.G, "ExtractOneInto")
			if got.G.Fingerprint() != want.G.Fingerprint() {
				t.Fatalf("seed %d v %d: fingerprint of reused-scratch graph diverges", seed, v)
			}
		}
	}
}

// TestNetworkIntoMatchesNetwork pins the batch-extraction scratch path
// the same way.
func TestNetworkIntoMatchesNetwork(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(t, 35, 180, seed+200)
		all := ExtractAll(g)
		var s Scratch
		for v := int32(0); int(v) < g.N(); v++ {
			got := all.NetworkInto(&s, v)
			want := all.Network(v)
			if len(got.Verts) != len(want.Verts) {
				t.Fatalf("seed %d v %d: vertex count mismatch", seed, v)
			}
			sameGraph(t, got.G, want.G, "NetworkInto")
		}
	}
}

// TestGlobalSetsFlatBacking pins the flat-buffer conversion: group
// values identical to a per-group conversion, and writes into one
// returned group can never bleed into a sibling (full-capacity
// subslices).
func TestGlobalSetsFlatBacking(t *testing.T) {
	g := randomGraph(t, 25, 120, 7)
	var v int32 = -1
	for u := int32(0); int(u) < g.N(); u++ {
		if g.Degree(u) >= 4 {
			v = u
			break
		}
	}
	if v < 0 {
		t.Skip("no vertex with degree >= 4")
	}
	net := ExtractOne(g, v)
	n := int32(len(net.Verts))
	local := [][]int32{{0, 1}, {2}, {n - 1, n - 2, 0}, {}}
	out := net.GlobalSets(local)
	if len(out) != len(local) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(local))
	}
	for i, grp := range local {
		if len(out[i]) != len(grp) {
			t.Fatalf("group %d: len %d, want %d", i, len(out[i]), len(grp))
		}
		for j, lv := range grp {
			if out[i][j] != net.Verts[lv] {
				t.Fatalf("group %d[%d] = %d, want %d", i, j, out[i][j], net.Verts[lv])
			}
		}
	}
	// Appending through one group must not overwrite the next group's
	// first element (three-index subslices cap each group).
	first := out[1][0]
	_ = append(out[0], -1) //nolint:staticcheck // probing capacity on purpose
	if out[1][0] != first {
		t.Fatal("append to one group clobbered its sibling: groups share spare capacity")
	}
}

// TestExtractOneIntoAllocFree pins the tentpole: steady-state extraction
// through a reused Scratch performs zero allocations.
func TestExtractOneIntoAllocFree(t *testing.T) {
	g := randomGraph(t, 60, 600, 11)
	var s Scratch
	// Warm the scratch to the largest ego-network first.
	for v := int32(0); int(v) < g.N(); v++ {
		ExtractOneInto(&s, g, v)
	}
	v := int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		ExtractOneInto(&s, g, v)
		v = (v + 1) % int32(g.N())
	})
	if allocs != 0 {
		t.Fatalf("ExtractOneInto allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// overlayGraph is a hub-heavy community overlay (power-law backbone plus
// planted cliques anchored on hubs), the shape of the bench datasets.
func overlayGraph(tb testing.TB, n int, def int64) *graph.Graph {
	return gen.CommunityOverlay(gen.OverlayConfig{
		N: n, Attach: 4, Cliques: n / 8, MinSize: 4, MaxSize: 14,
		Window: 250, AnchorBias: 0.5, Diffuse: n / 50,
		Seed: testutil.Seed(tb, def),
	})
}

// BenchmarkExtractOneInto times one full extraction pass (every vertex)
// over a 25k-vertex overlay graph through one reused Scratch.
func BenchmarkExtractOneInto(b *testing.B) {
	g := overlayGraph(b, 25000, 1)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); int(v) < g.N(); v++ {
			ExtractOneInto(&s, g, v)
		}
	}
}

// sameNetwork fails unless got and want are byte-identical: same center,
// same local->global map, and the same CSR (edge list, adjacency and
// edge IDs of every local vertex).
func sameNetwork(t *testing.T, got, want *Network, label string) {
	t.Helper()
	if got.Center != want.Center || !slices.Equal(got.Verts, want.Verts) {
		t.Fatalf("%s v %d: header mismatch", label, want.Center)
	}
	if got.G.N() != want.G.N() || !slices.Equal(got.G.Edges(), want.G.Edges()) {
		t.Fatalf("%s v %d: edge lists differ", label, want.Center)
	}
	for lv := int32(0); int(lv) < want.G.N(); lv++ {
		ga, ge := got.G.Arcs(lv)
		wa, we := want.G.Arcs(lv)
		if !slices.Equal(ga, wa) || !slices.Equal(ge, we) {
			t.Fatalf("%s v %d: arcs of local %d differ", label, want.Center, lv)
		}
	}
}

// TestTableKernelsMatchReferenceOnHubGraph pins the lookup-table kernels
// (ExtractOneInto, All.NetworkInto) to the merge reference (ExtractOne)
// and to Def. 1 literally (InducedSubgraph) on every vertex of a
// hub-heavy overlay graph, whose hubs have ego-networks hundreds of
// vertices wide.
func TestTableKernelsMatchReferenceOnHubGraph(t *testing.T) {
	g := overlayGraph(t, 3000, 7)
	all := ExtractAll(g)
	var one, batch Scratch
	for v := int32(0); int(v) < g.N(); v++ {
		want := ExtractOne(g, v)
		sameNetwork(t, ExtractOneInto(&one, g, v), want, "ExtractOneInto")
		sameNetwork(t, all.NetworkInto(&batch, v), want, "NetworkInto")
		induced, l2g := egoViaInduced(g, v)
		if !slices.Equal(l2g, want.Verts) || !slices.Equal(induced.Edges(), want.G.Edges()) {
			t.Fatalf("v %d: ExtractOne diverges from InducedSubgraph", v)
		}
	}
}

// TestScratchReusedAcrossGraphSizes moves one Scratch between graphs of
// different vertex counts — large, then small, then large again — and
// checks every extraction against the reference: the lookup table must
// come back clean from each call and must not be undersized after a
// smaller graph.
func TestScratchReusedAcrossGraphSizes(t *testing.T) {
	large := overlayGraph(t, 2000, 21)
	small := overlayGraph(t, 300, 22)
	var s Scratch
	for _, g := range []*graph.Graph{large, small, large} {
		all := ExtractAll(g)
		for v := int32(0); int(v) < g.N(); v++ {
			want := ExtractOne(g, v)
			sameNetwork(t, ExtractOneInto(&s, g, v), want, "ExtractOneInto")
			sameNetwork(t, all.NetworkInto(&s, v), want, "NetworkInto")
		}
	}
}
