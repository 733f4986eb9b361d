package paths

import (
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/graph"
)

// diamond builds the graph 0-1(1), 0-2(4), 1-2(2), 1-3(6), 2-3(3).
func diamond() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 4)
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 3, 6)
	g.AddEdge(2, 3, 3)
	return g
}

func TestDijkstraDiamond(t *testing.T) {
	tr := Dijkstra(diamond(), 0)
	want := []float64{0, 1, 3, 6}
	for v, w := range want {
		if tr.Dist[v] != w {
			t.Errorf("Dist[%d] = %g want %g", v, tr.Dist[v], w)
		}
	}
	if got := tr.PathTo(3); len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("PathTo(3) = %v", got)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	tr := Dijkstra(g, 0)
	if tr.Reachable(2) {
		t.Error("vertex 2 should be unreachable")
	}
	if tr.PathTo(2) != nil {
		t.Error("PathTo unreachable should be nil")
	}
	if !tr.Reachable(1) || tr.Dist[1] != 1 {
		t.Error("vertex 1 should be reachable at distance 1")
	}
}

// Property: Dijkstra on a random graph agrees with Floyd–Warshall.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(i, j, rng.Float64()*10)
				}
			}
		}
		fw := FloydWarshall(g)
		for s := 0; s < n; s++ {
			tr := Dijkstra(g, s)
			for v := 0; v < n; v++ {
				a, b := tr.Dist[v], fw.At(s, v)
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					t.Fatalf("trial %d: reachability mismatch s=%d v=%d", trial, s, v)
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
					t.Fatalf("trial %d: dist mismatch s=%d v=%d: %g vs %g", trial, s, v, a, b)
				}
			}
		}
	}
}

// Property: DijkstraMatrix on a complete graph agrees with heap Dijkstra.
func TestDijkstraMatrixMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		m := graph.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 0.1+rng.Float64()*10)
			}
		}
		g := m.Complete()
		for s := 0; s < n; s++ {
			a := DijkstraMatrix(m, s)
			b := Dijkstra(g, s)
			for v := 0; v < n; v++ {
				if math.Abs(a.Dist[v]-b.Dist[v]) > 1e-9 {
					t.Fatalf("trial %d s=%d v=%d: %g vs %g", trial, s, v, a.Dist[v], b.Dist[v])
				}
			}
		}
	}
}

func TestBFSUndirected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	reach, parent, order := BFS(g, 2)
	if !reach[0] || reach[3] {
		t.Errorf("reach = %v", reach)
	}
	if parent[0] != 1 {
		t.Errorf("parent = %v", parent)
	}
	if order[0] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestMetricClosure(t *testing.T) {
	g := diamond()
	terms := []int{0, 3}
	d, trees := MetricClosure(g, terms)
	if d.At(0, 1) != 6 || d.At(1, 0) != 6 {
		t.Errorf("closure dist = %g / %g", d.At(0, 1), d.At(1, 0))
	}
	if trees[0].Root != 0 || trees[1].Root != 3 {
		t.Error("tree roots wrong")
	}
	// Path between terminals goes through the cheap interior.
	p := trees[0].PathTo(3)
	if len(p) != 4 {
		t.Errorf("path = %v", p)
	}
}

func TestFloydWarshallParallelEdges(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 2) // parallel cheaper edge must win
	d := FloydWarshall(g)
	if d.At(0, 1) != 2 {
		t.Errorf("dist = %g", d.At(0, 1))
	}
}
