// Package graph provides the graph substrate shared by all algorithms in
// this repository: adjacency-list weighted graphs (undirected and
// directed), dense symmetric cost matrices, a disjoint-set union, and an
// indexed binary min-heap.
//
// Vertices are dense integers 0..N()−1 throughout; algorithms that need
// sparse identifiers keep their own mapping.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a weighted edge. For undirected graphs an Edge is stored once in
// each endpoint's adjacency list; Edges() reports each edge once with
// From < To.
type Edge struct {
	From, To int
	W        float64
}

// Graph is a weighted undirected multigraph with dense vertex ids.
type Graph struct {
	adj [][]Edge
	m   int
}

// New returns an empty undirected graph on n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts an undirected edge {u, v} of weight w. Self-loops are
// rejected because no algorithm in this repository uses them.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.adj[u] = append(g.adj[u], Edge{From: u, To: v, W: w})
	g.adj[v] = append(g.adj[v], Edge{From: v, To: u, W: w})
	g.m++
}

// AddVertex appends a fresh isolated vertex and returns its id. After a
// Rewind the slot's adjacency capacity is reused, so grow-rewind-grow
// cycles (the contraction states of repeated queries) stop allocating
// once the high-water mark is reached.
func (g *Graph) AddVertex() int {
	if cap(g.adj) > len(g.adj) {
		g.adj = g.adj[:len(g.adj)+1]
		g.adj[len(g.adj)-1] = g.adj[len(g.adj)-1][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return len(g.adj) - 1
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Assemble wraps pre-built adjacency lists as a graph of m edges. It is
// the constructor for incremental rebuilds that share unchanged
// adjacency slices with an existing graph (memtred.Rebuild): every
// undirected edge must appear in both endpoints' lists (as Edge{From: u,
// To: v} in adj[u] and the mirror in adj[v]) and be counted once in m.
// Both the caller and the donor graph must treat shared lists as
// immutable afterwards — algorithms that mutate (AddEdge/AddVertex/
// Rewind) operate on Clones.
func Assemble(adj [][]Edge, m int) *Graph { return &Graph{adj: adj, m: m} }

// Edges returns every edge exactly once, with From < To, sorted by
// (W, From, To) for determinism.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u, l := range g.adj {
		for _, e := range l {
			if e.To > u {
				es = append(es, Edge{From: u, To: e.To, W: e.W})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].W != es[j].W {
			return es[i].W < es[j].W
		}
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj)), m: g.m}
	for i, l := range g.adj {
		c.adj[i] = append([]Edge(nil), l...)
	}
	return c
}

// Snapshot records the current size of the graph so later growth
// (AddVertex/AddEdge) can be undone with Rewind. It captures per-vertex
// adjacency lengths, so edges added between pre-existing vertices are
// rewound too.
type Snapshot struct {
	n, m int
	deg  []int
}

// Snapshot captures the current graph extent. The returned value stays
// valid for any number of Rewind calls.
func (g *Graph) Snapshot() Snapshot {
	s := Snapshot{n: len(g.adj), m: g.m, deg: make([]int, len(g.adj))}
	for i, l := range g.adj {
		s.deg[i] = len(l)
	}
	return s
}

// Rewind truncates the graph back to the state captured by s: vertices
// added since are removed and every adjacency list is cut to its recorded
// length. It panics if the graph shrank below the snapshot in the
// meantime.
func (g *Graph) Rewind(s Snapshot) {
	if len(g.adj) < s.n {
		panic("graph: Rewind past a shrunken graph")
	}
	for i := s.n; i < len(g.adj); i++ {
		// Keep the backing arrays: Edge holds no pointers and AddVertex
		// reuses the capacity on the next growth cycle.
		g.adj[i] = g.adj[i][:0]
	}
	g.adj = g.adj[:s.n]
	for i := 0; i < s.n; i++ {
		g.adj[i] = g.adj[i][:s.deg[i]]
	}
	g.m = s.m
}

// Matrix is a dense symmetric cost matrix over n vertices, the natural
// representation of the paper's complete "cost graph" (S, c). The zero
// diagonal is maintained by construction.
type Matrix struct {
	n int
	a []float64
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix { return &Matrix{n: n, a: make([]float64, n*n)} }

// MatrixFrom wraps a row-major flat slice as a Matrix. The slice is used
// directly (not copied) and must have length n².
func MatrixFrom(n int, a []float64) *Matrix {
	if len(a) != n*n {
		panic(fmt.Sprintf("graph: matrix length %d != %d", len(a), n*n))
	}
	return &Matrix{n: n, a: a}
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// At returns the entry (i, j).
func (m *Matrix) At(i, j int) float64 { return m.a[i*m.n+j] }

// Set assigns entry (i, j) and, to preserve symmetry, (j, i).
func (m *Matrix) Set(i, j int, w float64) {
	m.a[i*m.n+j] = w
	m.a[j*m.n+i] = w
}

// SetAsym assigns only entry (i, j), for callers that need an asymmetric
// matrix (e.g. all-pairs shortest-path tables).
func (m *Matrix) SetAsym(i, j int, w float64) { m.a[i*m.n+j] = w }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{n: m.n, a: append([]float64(nil), m.a...)}
}

// Complete returns the complete undirected graph whose edge weights are
// the strict upper triangle of m (entries must be nonnegative).
func (m *Matrix) Complete() *Graph {
	g := New(m.n)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			g.AddEdge(i, j, m.At(i, j))
		}
	}
	return g
}
