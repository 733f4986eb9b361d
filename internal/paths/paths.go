// Package paths implements shortest-path algorithms on the graph
// substrate: Dijkstra with an indexed heap, BFS, Floyd–Warshall, and
// metric closures. These back the Steiner approximations, the
// Jain–Vazirani moat mechanism, and the universal shortest-path trees.
package paths

import (
	"math"

	"wmcs/internal/graph"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// Tree is a shortest-path tree: Dist[v] is the distance from the root and
// Parent[v] the predecessor on a shortest path (−1 for the root and for
// unreachable vertices).
type Tree struct {
	Root   int
	Dist   []float64
	Parent []int
}

// PathTo returns the vertices on the tree path from the root to v,
// inclusive, or nil if v is unreachable.
func (t *Tree) PathTo(v int) []int {
	if t.Dist[v] == Inf {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = t.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Reachable reports whether v is reachable from the root.
func (t *Tree) Reachable(v int) bool { return t.Dist[v] < Inf }

// Workspace owns the per-call buffers of the shortest-path algorithms —
// the indexed heap, the visited mask and a Tree — so repeated queries on
// networks of (at most) the same size allocate nothing. A Workspace is
// not safe for concurrent use; give each goroutine its own.
//
// The *Tree returned by a Workspace method is owned by the workspace and
// valid only until its next call; callers that need to keep it must copy.
type Workspace struct {
	heap *graph.IndexHeap
	done []bool
	tree Tree
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{heap: graph.NewIndexHeap(0)}
}

// newWorkspaceN returns a workspace pre-sized for n vertices, so the
// one-shot entry points pay exactly one allocation per buffer (the same
// count as a hand-rolled run) instead of a grow cycle.
func newWorkspaceN(n int) *Workspace {
	return &Workspace{
		heap: graph.NewIndexHeap(n),
		done: make([]bool, n),
		tree: Tree{Dist: make([]float64, n), Parent: make([]int, n)},
	}
}

// begin resizes and clears the buffers for an n-vertex run from src, and
// returns the workspace tree ready for relaxation.
func (ws *Workspace) begin(n, src int) *Tree {
	ws.heap.Grow(n)
	ws.heap.Reset()
	if cap(ws.done) < n {
		ws.done = make([]bool, n)
	}
	ws.done = ws.done[:n]
	if cap(ws.tree.Dist) < n {
		ws.tree.Dist = make([]float64, n)
		ws.tree.Parent = make([]int, n)
	}
	ws.tree.Dist = ws.tree.Dist[:n]
	ws.tree.Parent = ws.tree.Parent[:n]
	for i := 0; i < n; i++ {
		ws.done[i] = false
		ws.tree.Dist[i] = Inf
		ws.tree.Parent[i] = -1
	}
	ws.tree.Root = src
	return &ws.tree
}

// Dijkstra computes a shortest-path tree from src on an undirected graph
// with nonnegative weights, reusing the workspace buffers.
func (ws *Workspace) Dijkstra(g *graph.Graph, src int) *Tree {
	t := ws.begin(g.N(), src)
	h, done := ws.heap, ws.done
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		t.Dist[u] = du
		for _, e := range g.Neighbors(u) {
			if done[e.To] {
				continue
			}
			nd := du + e.W
			if nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Parent[e.To] = u
				h.PushOrDecrease(e.To, nd)
			}
		}
	}
	return t
}

// DijkstraDigraph computes a shortest-path tree from src on a digraph with
// nonnegative arc weights, reusing the workspace buffers.
func (ws *Workspace) DijkstraDigraph(g *graph.Digraph, src int) *Tree {
	t := ws.begin(g.N(), src)
	h, done := ws.heap, ws.done
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		t.Dist[u] = du
		for _, e := range g.Out(u) {
			if done[e.To] {
				continue
			}
			nd := du + e.W
			if nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Parent[e.To] = u
				h.PushOrDecrease(e.To, nd)
			}
		}
	}
	return t
}

// DijkstraMatrix computes a shortest-path tree from src over the complete
// graph described by the symmetric cost matrix m, in O(n²) without a
// heap, reusing the workspace buffers.
func (ws *Workspace) DijkstraMatrix(m *graph.Matrix, src int) *Tree {
	n := m.N()
	t := ws.begin(n, src)
	done := ws.done
	t.Dist[src] = 0
	for iter := 0; iter < n; iter++ {
		u, best := -1, Inf
		for v := 0; v < n; v++ {
			if !done[v] && t.Dist[v] < best {
				u, best = v, t.Dist[v]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if done[v] || v == u {
				continue
			}
			nd := best + m.At(u, v)
			if nd < t.Dist[v] {
				t.Dist[v] = nd
				t.Parent[v] = u
			}
		}
	}
	return t
}

// Dijkstra computes a shortest-path tree from src on an undirected graph
// with nonnegative weights. The one-shot entry point; repeated queries
// should hold a Workspace instead.
func Dijkstra(g *graph.Graph, src int) *Tree {
	return newWorkspaceN(g.N()).Dijkstra(g, src)
}

// DijkstraDigraph computes a shortest-path tree from src on a digraph with
// nonnegative arc weights.
func DijkstraDigraph(g *graph.Digraph, src int) *Tree {
	return newWorkspaceN(g.N()).DijkstraDigraph(g, src)
}

// DijkstraMatrix computes a shortest-path tree from src over the complete
// graph described by the symmetric cost matrix m, in O(n²) without a heap.
// This is the right tool for the paper's complete cost graphs.
func DijkstraMatrix(m *graph.Matrix, src int) *Tree {
	return newWorkspaceN(m.N()).DijkstraMatrix(m, src)
}

// BFS returns reachability, parents and visit order from src in an
// undirected graph, ignoring weights.
func BFS(g *graph.Graph, src int) (reach []bool, parent []int, order []int) {
	n := g.N()
	reach = make([]bool, n)
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	queue := []int{src}
	reach[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.Neighbors(u) {
			if !reach[e.To] {
				reach[e.To] = true
				parent[e.To] = u
				queue = append(queue, e.To)
			}
		}
	}
	return reach, parent, order
}

// FloydWarshall returns the all-pairs shortest-path distance matrix of the
// undirected graph g. Unreachable pairs get Inf.
func FloydWarshall(g *graph.Graph) *graph.Matrix {
	n := g.N()
	d := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.SetAsym(i, j, Inf)
			}
		}
	}
	for _, e := range g.Edges() {
		if e.W < d.At(e.From, e.To) {
			d.Set(e.From, e.To, e.W)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d.At(i, k)
			if dik == Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + d.At(k, j); nd < d.At(i, j) {
					d.SetAsym(i, j, nd)
				}
			}
		}
	}
	return d
}

// MetricClosure runs Dijkstra from every vertex in terms and returns the
// |terms|×|terms| distance matrix between terminals plus the per-terminal
// shortest-path trees (indexed like terms). It is the workhorse of the
// Kou–Markowsky–Berman Steiner approximation and the moat mechanism.
func MetricClosure(g *graph.Graph, terms []int) (*graph.Matrix, []*Tree) {
	k := len(terms)
	d := graph.NewMatrix(k)
	trees := make([]*Tree, k)
	for i, t := range terms {
		trees[i] = Dijkstra(g, t)
		for j, u := range terms {
			if i != j {
				d.SetAsym(i, j, trees[i].Dist[u])
			}
		}
	}
	return d, trees
}
