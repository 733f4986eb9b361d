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

// newTree returns the tree of a run from src over n vertices, with
// every vertex still unreached.
func newTree(n, src int) *Tree {
	t := &Tree{Root: src, Dist: make([]float64, n), Parent: make([]int, n)}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Parent[i] = -1
	}
	return t
}

// Dijkstra computes a shortest-path tree from src on an undirected graph
// with nonnegative weights.
func Dijkstra(g *graph.Graph, src int) *Tree {
	n := g.N()
	t := newTree(n, src)
	h, done := graph.NewIndexHeap(n), make([]bool, n)
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

// DijkstraMatrix computes a shortest-path tree from src over the complete
// graph described by the symmetric cost matrix m, in O(n²) without a heap.
// This is the right tool for the paper's complete cost graphs.
func DijkstraMatrix(m *graph.Matrix, src int) *Tree {
	n := m.N()
	t := newTree(n, src)
	done := make([]bool, n)
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
