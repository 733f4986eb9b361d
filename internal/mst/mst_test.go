package mst

import (
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/graph"
)

func TestPrimKnownTree(t *testing.T) {
	// Classic example: MST weight 1+2+3 = 6.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(0, 3, 10)
	g.AddEdge(0, 2, 9)
	edges := Prim(g, 0)
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if w := Weight(edges); w != 6 {
		t.Errorf("weight = %g want 6", w)
	}
}

func TestKruskalForestOnDisconnected(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	edges := Kruskal(g)
	if len(edges) != 2 || Weight(edges) != 3 {
		t.Errorf("forest = %v", edges)
	}
}

func TestPrimDisconnectedSpansComponentOnly(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	edges := Prim(g, 0)
	if len(edges) != 1 {
		t.Errorf("edges = %v", edges)
	}
}

// Property: Prim, PrimMatrix and Kruskal agree on total weight for random
// complete graphs (MST weight is unique even when the tree is not).
func TestMSTAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(14)
		m := graph.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64()*10+0.001)
			}
		}
		g := m.Complete()
		wp := Weight(Prim(g, rng.Intn(n)))
		wk := Weight(Kruskal(g))
		wm := Weight(PrimMatrix(m, rng.Intn(n)))
		if math.Abs(wp-wk) > 1e-9 || math.Abs(wp-wm) > 1e-9 {
			t.Fatalf("trial %d: prim=%g kruskal=%g matrix=%g", trial, wp, wk, wm)
		}
	}
}

// Property: MST weight is minimal over 200 random spanning trees.
func TestMSTIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 8
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, rng.Float64()*10)
		}
	}
	g := m.Complete()
	opt := Weight(Kruskal(g))
	for trial := 0; trial < 200; trial++ {
		// Random spanning tree by random-order Kruskal.
		perm := rng.Perm(g.M())
		edges := g.Edges()
		uf := graph.NewUnionFind(n)
		var w float64
		cnt := 0
		for _, idx := range perm {
			e := edges[idx]
			if uf.Union(e.From, e.To) {
				w += e.W
				cnt++
			}
		}
		if cnt != n-1 {
			t.Fatal("random spanning tree incomplete")
		}
		if w < opt-1e-9 {
			t.Fatalf("found spanning tree of weight %g < MST %g", w, opt)
		}
	}
}
