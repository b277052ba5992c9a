// Package ego extracts ego-networks (paper Def. 1): for a vertex v, the
// subgraph of G induced by N(v), excluding v itself.
//
// Two strategies are provided, mirroring the paper's two pipelines:
//
//   - Local triangle listing around a single vertex (the path used by the
//     online algorithms and TSD-index construction, §3.2/§5.1). Each
//     triangle through v is touched while building one ego-network.
//     ExtractOneInto is the serving kernel: it marks N(v) in an n-sized
//     lookup table held by the Scratch, then for each neighbor u scans
//     only the part of N(u) in (u, max N(v)] and looks every entry up in
//     the table — O(d(v) + Σ_u |N(u) ∩ (u, max N(v)]|) per vertex, with
//     no pass over N(v) per neighbor. ExtractOne is the one-shot
//     reference: a sorted-list merge of N(u) with N(v) per neighbor, which
//     allocates only O(d(v) + m_v) and is what the parity tests, the
//     baseline models and the paper experiments use.
//   - ExtractAll performs one-shot global triangle listing and distributes
//     each triangle to the three ego-networks it belongs to (the GCT
//     pipeline, §6.2). Each triangle is enumerated once instead of being
//     rediscovered by every endpoint, which the paper credits for roughly
//     halving extraction work. All.NetworkInto maps the collected edges
//     to local IDs through the same lookup table.
package ego

import (
	"slices"
	"sort"

	"trussdiv/internal/graph"
)

// Network is the ego-network of Center: a local graph over the neighbors
// of Center, relabeled 0..len(Verts)-1 in ascending global-ID order.
type Network struct {
	Center int32
	Verts  []int32      // local ID -> global ID (sorted); aliases g's storage
	G      *graph.Graph // the induced local graph
}

// Global maps a local vertex ID back to the global ID.
func (n *Network) Global(local int32) int32 { return n.Verts[local] }

// Local maps a global vertex ID to the local ID, or -1 if the vertex is
// not a neighbor of the center.
func (n *Network) Local(global int32) int32 {
	i := sort.Search(len(n.Verts), func(i int) bool { return n.Verts[i] >= global })
	if i < len(n.Verts) && n.Verts[i] == global {
		return int32(i)
	}
	return -1
}

// GlobalSets converts local vertex groups (e.g. social contexts) to global
// vertex IDs. All groups share one flat backing array (each capped with a
// three-index subslice), so the conversion costs two allocations total
// instead of one per group.
func (n *Network) GlobalSets(local [][]int32) [][]int32 {
	total := 0
	for _, grp := range local {
		total += len(grp)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(local))
	for i, grp := range local {
		start := len(flat)
		for _, lv := range grp {
			flat = append(flat, n.Verts[lv])
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Scratch owns the reusable storage one worker needs to extract
// ego-networks without allocating in steady state: the builder's edge
// slab, the local graph's CSR slabs, the Network header, and the
// global->local lookup table (one int32 per vertex of the largest graph
// extracted from, 4n bytes). The zero value is ready to use. A Scratch is
// not safe for concurrent use — each worker owns exactly one — and the
// Network returned by ExtractOneInto or All.NetworkInto (plus everything
// reachable from it) is a view over the Scratch, valid only until the
// next extraction into the same Scratch. Because of the table, a Scratch
// belongs with a long-lived owner (a worker of a scan or build, or a pool
// that lives as long as the graph), never with a single call. See
// DESIGN.md "Scratch ownership contract".
type Scratch struct {
	b   graph.Builder
	csr graph.Scratch
	net Network
	// local[w] is 1 + the local ID of w while an ego-network containing
	// w is being built, 0 otherwise. Every extraction clears the slots it set, so
	// the table stays all-zero between calls and can be reused across
	// graphs of any size (it only grows).
	local []int32
}

// markNeighbors sets local[w] = j+1 for each verts[j] and returns the
// table, grown to n entries if needed. unmark must follow.
func (s *Scratch) markNeighbors(n int, verts []int32) []int32 {
	if len(s.local) < n {
		s.local = make([]int32, n)
	}
	for j, w := range verts {
		s.local[w] = int32(j + 1)
	}
	return s.local
}

// unmark restores the table slots markNeighbors set to zero.
func (s *Scratch) unmark(verts []int32) {
	for _, w := range verts {
		s.local[w] = 0
	}
}

// finish builds the local graph into the CSR slabs and fills the header.
func (s *Scratch) finish(v int32, verts []int32) *Network {
	s.net.Center = v
	s.net.Verts = verts
	s.net.G = s.b.BuildInto(&s.csr)
	return &s.net
}

// ExtractOneInto builds the ego-network of v by local triangle listing
// into recycled storage: the edge (u,w) is added for every neighbor u of
// v and every w in N(u) ∩ N(v) with w > u. Membership is a lookup in the
// Scratch's table, and N(u) is scanned only over (u, max N(v)], found by
// binary search. The result is identical to ExtractOne's; the returned
// Network aliases s and is invalidated by the next extraction into s.
func ExtractOneInto(s *Scratch, g *graph.Graph, v int32) *Network {
	verts := g.Neighbors(v)
	s.b.Reset(len(verts))
	if len(verts) > 1 {
		local := s.markNeighbors(g.N(), verts)
		hi := verts[len(verts)-1]
		// The largest neighbor has no ego edge to a larger one.
		for lu, u := range verts[:len(verts)-1] {
			nu := g.Neighbors(u)
			i, _ := slices.BinarySearch(nu, u+1)
			for _, w := range nu[i:] {
				if w > hi {
					break
				}
				if j := local[w]; j != 0 {
					s.b.AddEdge(int32(lu), j-1)
				}
			}
		}
		s.unmark(verts)
	}
	return s.finish(v, verts)
}

// ExtractOne builds the ego-network of v by local triangle listing: for
// every neighbor u of v, the edge (u,w) is added for each w in
// N(u) ∩ N(v) with w > u, via a merge of the sorted adjacency lists. It
// is the reference implementation — the parity tests pin ExtractOneInto
// to it — and the one-shot path: it allocates only what the returned
// Network holds, never an n-sized table, so the result is never
// invalidated. Loops over many vertices should reuse one Scratch via
// ExtractOneInto instead.
func ExtractOne(g *graph.Graph, v int32) *Network {
	s := new(Scratch)
	verts := g.Neighbors(v)
	s.b.Reset(len(verts))
	for lu, u := range verts {
		// Merge N(u) with verts, tracking the local index of matches.
		nu := g.Neighbors(u)
		i, j := 0, 0
		for i < len(nu) && j < len(verts) {
			switch {
			case nu[i] < verts[j]:
				i++
			case nu[i] > verts[j]:
				j++
			default:
				if verts[j] > u { // count each ego edge once
					s.b.AddEdge(int32(lu), int32(j))
				}
				i++
				j++
			}
		}
	}
	return s.finish(v, verts)
}

// All holds the materialized ego-network edge lists of every vertex,
// produced by one global triangle-listing pass.
type All struct {
	g     *graph.Graph
	off   []int64      // per-vertex slice boundaries into edges
	edges []graph.Edge // global endpoint pairs of ego edges, grouped by center
}

// ExtractAll lists each triangle of g exactly once and assigns each of its
// three edges to the opposite endpoint's ego-network (paper Alg. 7 lines
// 1-4). Memory is Θ(3T) edge records, allocated exactly via a counting
// pre-pass.
func ExtractAll(g *graph.Graph) *All {
	n := g.N()
	counts := g.TrianglesPerVertex() // m_v per vertex
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int64(counts[v])
	}
	edges := make([]graph.Edge, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	put := func(center int32, a, b int32) {
		if a > b {
			a, b = b, a
		}
		edges[cursor[center]] = graph.Edge{U: a, V: b}
		cursor[center]++
	}
	g.ForEachTriangle(func(t graph.Triangle) bool {
		put(t.U, t.V, t.W)
		put(t.V, t.U, t.W)
		put(t.W, t.U, t.V)
		return true
	})
	return &All{g: g, off: off, edges: edges}
}

// EdgeCount returns m_v, the number of edges of v's ego-network (equal to
// the number of triangles through v).
func (a *All) EdgeCount(v int32) int { return int(a.off[v+1] - a.off[v]) }

// Network materializes the ego-network of v from the precollected edges,
// mapping endpoints to local IDs by binary search over N(v). Like
// ExtractOne it is a one-shot path that never allocates an n-sized
// table, so the result is never invalidated.
func (a *All) Network(v int32) *Network {
	s := new(Scratch)
	verts := a.g.Neighbors(v)
	s.b.Reset(len(verts))
	for _, e := range a.edges[a.off[v]:a.off[v+1]] {
		lu, _ := slices.BinarySearch(verts, e.U) // membership is guaranteed
		lw, _ := slices.BinarySearch(verts, e.V)
		s.b.AddEdge(int32(lu), int32(lw))
	}
	return s.finish(v, verts)
}

// NetworkInto is Network into recycled storage, mapping endpoints to
// local IDs through the Scratch's lookup table: the returned Network
// aliases s and is invalidated by the next extraction into s.
func (a *All) NetworkInto(s *Scratch, v int32) *Network {
	verts := a.g.Neighbors(v)
	s.b.Reset(len(verts))
	edges := a.edges[a.off[v]:a.off[v+1]]
	if len(edges) > 0 {
		local := s.markNeighbors(a.g.N(), verts)
		for _, e := range edges {
			s.b.AddEdge(local[e.U]-1, local[e.V]-1)
		}
		s.unmark(verts)
	}
	return s.finish(v, verts)
}
