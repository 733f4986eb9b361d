// Package mst implements minimum spanning tree algorithms (Prim and
// Kruskal) plus utilities to orient a spanning tree away from a root.
// MSTs back the MST broadcast heuristic of Wieselthier et al. [50], the
// Kou–Markowsky–Berman Steiner approximation, and the universal trees of
// §2.1 of the paper.
package mst

import (
	"wmcs/internal/graph"
)

// Workspace owns the buffers of the spanning-tree algorithms (heap,
// in-tree mask, best-edge table, union-find) so repeated runs on graphs
// of (at most) the same size allocate nothing. Not safe for concurrent
// use. The edge slices returned by its methods are owned by the
// workspace and valid until its next call.
type Workspace struct {
	heap     *graph.IndexHeap
	uf       *graph.UnionFind
	inTree   []bool
	bestEdge []graph.Edge
	edges    []graph.Edge
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{heap: graph.NewIndexHeap(0), uf: graph.NewUnionFind(0)}
}

func (ws *Workspace) begin(n int) {
	ws.heap.Grow(n)
	ws.heap.Reset()
	if cap(ws.inTree) < n {
		ws.inTree = make([]bool, n)
		ws.bestEdge = make([]graph.Edge, n)
	}
	ws.inTree = ws.inTree[:n]
	ws.bestEdge = ws.bestEdge[:n]
	for i := 0; i < n; i++ {
		ws.inTree[i] = false
	}
	ws.edges = ws.edges[:0]
}

// Prim returns MST edges of start's component, reusing the workspace.
func (ws *Workspace) Prim(g *graph.Graph, start int) []graph.Edge {
	ws.begin(g.N())
	h, inTree, bestEdge := ws.heap, ws.inTree, ws.bestEdge
	h.Push(start, 0)
	for h.Len() > 0 {
		u, _ := h.Pop()
		if inTree[u] {
			continue
		}
		inTree[u] = true
		if u != start {
			ws.edges = append(ws.edges, bestEdge[u])
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
	return ws.edges
}

// Kruskal returns the edges of a minimum spanning forest of g, reusing
// the workspace union-find (the edge scan itself still sorts a fresh
// slice inside g.Edges()).
func (ws *Workspace) Kruskal(g *graph.Graph) []graph.Edge {
	ws.uf.Reset(g.N())
	ws.edges = ws.edges[:0]
	for _, e := range g.Edges() { // Edges() is weight-sorted
		if ws.uf.Union(e.From, e.To) {
			ws.edges = append(ws.edges, e)
		}
	}
	return ws.edges
}

// Prim returns the edges of a minimum spanning tree of the connected
// component of start, using the indexed heap. On a disconnected graph only
// the component of start is spanned. The one-shot entry point; repeated
// runs should hold a Workspace.
func Prim(g *graph.Graph, start int) []graph.Edge {
	n := g.N()
	ws := &Workspace{
		heap:     graph.NewIndexHeap(n),
		inTree:   make([]bool, n),
		bestEdge: make([]graph.Edge, n),
	}
	return ws.Prim(g, start)
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
