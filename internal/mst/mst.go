// Package mst implements minimum spanning tree algorithms (Prim and
// Kruskal) plus utilities to orient a spanning tree away from a root.
// MSTs back the MST broadcast heuristic of Wieselthier et al. [50], the
// Kou–Markowsky–Berman Steiner approximation, and the universal trees of
// §2.1 of the paper.
package mst

import (
	"wmcs/internal/graph"
)

// Prim returns the edges of a minimum spanning tree of the connected
// component of start, using the indexed heap. On a disconnected graph only
// the component of start is spanned.
func Prim(g *graph.Graph, start int) []graph.Edge {
	n := g.N()
	h := graph.NewIndexHeap(n)
	inTree, bestEdge := make([]bool, n), make([]graph.Edge, n)
	var edges []graph.Edge
	h.Push(start, 0)
	for h.Len() > 0 {
		u, _ := h.Pop()
		if inTree[u] {
			continue
		}
		inTree[u] = true
		if u != start {
			edges = append(edges, bestEdge[u])
		}
		for _, e := range g.Neighbors(u) {
			if inTree[e.To] {
				continue
			}
			if !h.Contains(e.To) || e.W < h.Priority(e.To) {
				bestEdge[e.To] = e
				h.PushOrDecrease(e.To, e.W)
			}
		}
	}
	return edges
}

// PrimMatrix returns MST edges of the complete graph given by the
// symmetric matrix m in O(n²), the natural choice for the paper's complete
// cost graphs.
func PrimMatrix(m *graph.Matrix, start int) []graph.Edge {
	n := m.N()
	inTree := make([]bool, n)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = inf
		from[i] = -1
	}
	dist[start] = 0
	var edges []graph.Edge
	for iter := 0; iter < n; iter++ {
		u, best := -1, inf
		for v := 0; v < n; v++ {
			if !inTree[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		inTree[u] = true
		if from[u] >= 0 {
			edges = append(edges, graph.Edge{From: from[u], To: u, W: dist[u]})
		}
		for v := 0; v < n; v++ {
			if !inTree[v] && m.At(u, v) < dist[v] {
				dist[v] = m.At(u, v)
				from[v] = u
			}
		}
	}
	return edges
}

const inf = 1e308

// Kruskal returns the edges of a minimum spanning forest of g.
func Kruskal(g *graph.Graph) []graph.Edge {
	uf := graph.NewUnionFind(g.N())
	var out []graph.Edge
	for _, e := range g.Edges() { // Edges() is weight-sorted
		if uf.Union(e.From, e.To) {
			out = append(out, e)
		}
	}
	return out
}

// Weight sums the weights of the given edges.
func Weight(edges []graph.Edge) float64 {
	var s float64
	for _, e := range edges {
		s += e.W
	}
	return s
}
