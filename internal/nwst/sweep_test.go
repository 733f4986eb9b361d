package nwst

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wmcs/internal/graph"
)

// refDijkstra is the decrease-key node-weighted sweep that the
// push-once State.dijkstra replaced: graph.IndexHeap with
// PushOrDecrease and a done mask. It is kept as the reference the
// production sweep must match bit for bit, and the naive oracle
// references sweep with it, so they share no sweep code with the
// oracles. stopTerms follows State.dijkstra.
func refDijkstra(s *State, src, stopTerms int) ([]float64, []int32) {
	n := s.g.N()
	dist := make([]float64, n)
	parent := make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if !s.alive[src] {
		return dist, parent
	}
	h := graph.NewIndexHeap(n)
	done := make([]bool, n)
	dist[src] = 0
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		if stopTerms > 0 && s.isTerm[u] && !s.free[u] {
			if stopTerms--; stopTerms == 0 {
				return dist, parent
			}
		}
		for _, e := range s.g.Neighbors(u) {
			v := e.To
			if !s.alive[v] || done[v] {
				continue
			}
			if nd := du + s.w[v]; nd < dist[v] {
				dist[v] = nd
				parent[v] = int32(u)
				h.PushOrDecrease(v, nd)
			}
		}
	}
	return dist, parent
}

// subnormalWeights rounds an instance's weights up to small integers
// and scales them to that many multiples of the smallest subnormal, so
// path sums are exact and ties are as common as with integerWeights.
func subnormalWeights(in Instance) Instance {
	w := make([]float64, len(in.Weights))
	for i, x := range in.Weights {
		w[i] = math.Ceil(x) * math.SmallestNonzeroFloat64
	}
	in.Weights = w
	return in
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestSweepMatchesDecreaseKey compares the push-once sweep with the
// decrease-key reference, dist and parent bit for bit over whole rows,
// from every vertex (dead ones included), exhaustive and stopped after
// one, two and all paying terminals. The graphs are random, with real,
// integer (many ties) and subnormal weights, and each is compared
// before and after every Shrink of a greedy run. Random graphs have no
// chain description; reduction_test.go runs the same check on
// reduction graphs, whose sweeps go through theirs.
func TestSweepMatchesDecreaseKey(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		in := withFreeSource(randomInstance(rng, 9+rng.Intn(30), 3+rng.Intn(6)))
		switch trial % 3 {
		case 1:
			in = integerWeights(in)
		case 2:
			in = subnormalWeights(in)
		}
		checkSweeps(t, fmt.Sprintf("trial %d", trial), NewState(in))
	}
}

// checkSweeps runs a branch-oracle greedy on st and, before and after
// every Shrink, compares the sweep from every vertex with refDijkstra
// over whole rows, exhaustive and stopped after one, two and all paying
// terminals.
func checkSweeps(t *testing.T, label string, st *State) {
	t.Helper()
	for step := 0; ; step++ {
		n := st.g.N()
		paying := len(st.PayingTerminals())
		dist, parent := make([]float64, n), make([]int32, n)
		for src := 0; src < n; src++ {
			for _, stop := range []int{-1, 1, 2, paying} {
				st.dijkstra(&st.sc, src, dist, parent, stop)
				wantDist, wantParent := refDijkstra(st, src, stop)
				if !sameBits(dist, wantDist) || !slices.Equal(parent, wantParent) {
					t.Fatalf("%s step %d src %d stop %d:\ndist   %v\nwant   %v\nparent %v\nwant   %v",
						label, step, src, stop, dist, wantDist, parent, wantParent)
				}
			}
		}
		if len(st.LiveTerminals()) <= 2 {
			return
		}
		sp, ok := BranchSpiderOracle(st, min(3, paying))
		if !ok {
			return
		}
		st.Shrink(sp)
	}
}
