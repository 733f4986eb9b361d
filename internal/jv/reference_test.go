package jv

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/mst"
	"wmcs/internal/paths"
	"wmcs/internal/sharing"
	"wmcs/internal/steiner"
	"wmcs/internal/wireless"
)

// refMoats is the growth process as a pair scan: one
// paths.DijkstraMatrix per terminal on every call, and at each of the
// k − 1 merges a scan of every terminal pair for the least meeting time,
// the lexicographically first (i, j) among equal ones, O(k³) in all.
// Moats must match it bit for bit.
func refMoats(nw *wireless.Network, R []int, w Weights) MoatResult {
	if w == nil {
		w = func(int) float64 { return 1 }
	}
	src := nw.Source()
	terms := append([]int{src}, R...)
	// Shortest-path distances and trees from every terminal over the
	// complete cost graph.
	k := len(terms)
	trees := make([]*paths.Tree, k)
	for i, t := range terms {
		trees[i] = paths.DijkstraMatrix(nw.CostMatrix(), t)
	}
	dist := func(i, j int) float64 { return trees[i].Dist[terms[j]] }

	comp := graph.NewUnionFind(k)
	radius := make([]float64, k) // moat radius per terminal; all grow at rate 1
	shares := make(map[int]float64, len(R))
	paying := func(c int) bool { return comp.Find(c) != comp.Find(0) }
	type merge struct{ a, b int }
	var merges []merge
	var dual float64
	for comp.Sets() > 1 {
		// Next meeting time over terminal pairs in different components;
		// every moat grows, so the combined closing rate is always 2.
		best := math.Inf(1)
		var ba, bb int
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if comp.Same(i, j) {
					continue
				}
				dt := (dist(i, j) - radius[i] - radius[j]) / 2
				if dt < best {
					best, ba, bb = dt, i, j
				}
			}
		}
		if math.IsInf(best, 1) {
			break // disconnected (cannot happen on complete graphs)
		}
		if best < 0 {
			best = 0 // simultaneous meetings
		}
		// Advance time: every moat grows; only components without the
		// source pay, 2·dt per component, split by the weights f_i.
		groups := map[int][]int{}
		for i := 0; i < k; i++ {
			radius[i] += best
			if paying(i) {
				groups[comp.Find(i)] = append(groups[comp.Find(i)], i)
			}
		}
		// Map iteration order is safe here: each group touches a disjoint
		// agent set exactly once and contributes the same `best` to dual,
		// so no float result depends on the order.
		//lint:detorder disjoint agent sets per group; dual gains the identical addend each visit, so no float depends on order
		for _, members := range groups {
			var wsum float64
			for _, i := range members {
				wsum += w(terms[i])
			}
			dual += best
			for _, i := range members {
				shares[terms[i]] += 2 * best * w(terms[i]) / wsum
			}
		}
		merges = append(merges, merge{a: ba, b: bb})
		comp.Union(ba, bb)
	}
	// Realize the merge tree: union of shortest paths for each merge,
	// re-spanned from the source and pruned to the terminals.
	sub := graph.New(nw.N())
	seen := map[[2]int]bool{}
	for _, mg := range merges {
		path := trees[mg.a].PathTo(terms[mg.b])
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			if a > b {
				a, b = b, a
			}
			if !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				sub.AddEdge(a, b, nw.C(a, b))
			}
		}
	}
	edges := steiner.Prune(nw.N(), mst.Prim(sub, src), terms)
	tree := wireless.TreeFromUndirectedEdges(nw.N(), edges, src)
	tree = wireless.PruneTree(tree, R)
	return MoatResult{
		Shares:     shares,
		Dual:       dual,
		Tree:       tree,
		Assignment: nw.AssignmentForTree(tree),
	}
}

// refRunDetailed is Mechanism.RunDetailed over refMoats: Moulin–Shenker
// over the reference shares, then the reference's tree for the final
// receivers.
func refRunDetailed(nw *wireless.Network, w Weights, u mech.Profile) Result {
	xi := sharing.MethodFunc(func(R []int) map[int]float64 {
		if len(R) == 0 {
			return map[int]float64{}
		}
		return refMoats(nw, R, w).Shares
	})
	res := sharing.MoulinShenker(nw.AllReceivers(), xi, u)
	if len(res.Receivers) == 0 {
		return Result{
			Outcome:    mech.Outcome{Shares: map[int]float64{}},
			Assignment: make(wireless.Assignment, nw.N()),
		}
	}
	final := refMoats(nw, res.Receivers, w)
	return Result{
		Outcome: mech.Outcome{
			Receivers: res.Receivers,
			Shares:    res.Shares,
			Cost:      final.Assignment.Total(),
		},
		Assignment: final.Assignment,
	}
}

// sameMoats reports the first difference between a Moats result and the
// reference's: share and dual bits, the tree, the assignment's bits.
func sameMoats(got, want MoatResult) string {
	if len(got.Shares) != len(want.Shares) {
		return fmt.Sprintf("%d shares, want %d", len(got.Shares), len(want.Shares))
	}
	for a, s := range want.Shares {
		if g, ok := got.Shares[a]; !ok || math.Float64bits(g) != math.Float64bits(s) {
			return fmt.Sprintf("share of %d = %v, want %v", a, g, s)
		}
	}
	if math.Float64bits(got.Dual) != math.Float64bits(want.Dual) {
		return fmt.Sprintf("dual = %v, want %v", got.Dual, want.Dual)
	}
	if !reflect.DeepEqual(got.Tree, want.Tree) {
		return fmt.Sprintf("tree = %v, want %v", got.Tree, want.Tree)
	}
	return sameAssignment(got.Assignment, want.Assignment)
}

func sameAssignment(got, want wireless.Assignment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("assignment over %d stations, want %d", len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Sprintf("power of %d = %v, want %v", v, got[v], want[v])
		}
	}
	return ""
}

// sameResult is sameMoats for Mechanism.RunDetailed.
func sameResult(got, want Result) string {
	g, w := got.Outcome, want.Outcome
	if !slices.Equal(g.Receivers, w.Receivers) {
		return fmt.Sprintf("receivers %v, want %v", g.Receivers, w.Receivers)
	}
	if len(g.Shares) != len(w.Shares) {
		return fmt.Sprintf("%d shares, want %d", len(g.Shares), len(w.Shares))
	}
	for a, s := range w.Shares {
		if x, ok := g.Shares[a]; !ok || math.Float64bits(x) != math.Float64bits(s) {
			return fmt.Sprintf("share of %d = %v, want %v", a, x, s)
		}
	}
	if math.Float64bits(g.Cost) != math.Float64bits(w.Cost) {
		return fmt.Sprintf("cost = %v, want %v", g.Cost, w.Cost)
	}
	return sameAssignment(got.Assignment, want.Assignment)
}

// TestMoatsMatchReference pins the sorted walk over one table to the
// quadratic scan over per-call sweeps, bit for bit: Moats on random
// receiver sets, and Mechanism.RunDetailed on random profiles, over
// every scenario at n ∈ {8, 12, 24, 48} and α ∈ {1, 2}, under uniform
// weights, integer weights and weights whose sums round.
func TestMoatsMatchReference(t *testing.T) {
	families := []struct {
		name string
		w    Weights
	}{
		{"uniform", nil},
		{"1+a%3", func(a int) float64 { return 1 + float64(a%3) }},
		{"sqrt", func(a int) float64 { return math.Sqrt(float64(a)) + 0.1 }},
	}
	sizes := []int{8, 12, 24, 48}
	if testing.Short() {
		sizes = []int{8, 12}
	}
	rng := rand.New(rand.NewSource(34))
	cases := 0
	for si, sc := range instances.Scenarios() {
		for _, n := range sizes {
			for _, alpha := range []float64{1, 2} {
				nw, err := instances.Spec{Scenario: sc.Name, N: n, Alpha: alpha, Seed: int64(100*si + n)}.Build()
				if err != nil {
					t.Fatal(err)
				}
				agents := nw.AllReceivers()
				for _, f := range families {
					cell := fmt.Sprintf("%s n=%d α=%g %s", sc.Name, n, alpha, f.name)
					full := refMoats(nw, agents, f.w)
					for trial := 0; trial < 8; trial++ {
						R := agents
						if trial > 0 {
							R = nil
							for _, a := range agents {
								if rng.Intn(3) > 0 {
									R = append(R, a)
								}
							}
							rng.Shuffle(len(R), func(i, j int) { R[i], R[j] = R[j], R[i] })
						}
						if d := sameMoats(Moats(nw, R, f.w), refMoats(nw, R, f.w)); d != "" {
							t.Fatalf("%s R=%v: %s", cell, R, d)
						}
						cases++
					}
					var top float64
					for _, s := range full.Shares {
						top = max(top, s)
					}
					m := NewMechanism(nw, f.w)
					for trial := 0; trial < 3; trial++ {
						u := mech.RandomProfile(rng, nw.N(), 1.5*top)
						u[nw.Source()] = 0
						if d := sameResult(m.RunDetailed(u), refRunDetailed(nw, f.w, u)); d != "" {
							t.Fatalf("%s profile %d: %s", cell, trial, d)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestMoatsTieRule: distinct distances whose meeting times round to the
// same float. Source 0, c(0,1) = 2⁻³², c(1,2) = 2²⁰ + 2⁻³¹ and
// c(0,2) = 2²⁰ + 3·2⁻³². After (0, 1) merges, r = 2⁻³³, half an ulp of
// 2²⁰, and both remaining pairs meet at (2²⁰ + 2·2⁻³²)/2. The scan
// merges the lexicographically first pair, (0, 2), although (1, 2) is
// nearer; station 2 then hangs off the source.
func TestMoatsTieRule(t *testing.T) {
	m := graph.NewMatrix(3)
	m.Set(0, 1, math.Ldexp(1, -32))
	m.Set(1, 2, math.Ldexp(1, 20)+math.Ldexp(1, -31))
	m.Set(0, 2, math.Ldexp(1, 20)+math.Ldexp(3, -32))
	nw := wireless.NewSymmetric(m, 0)
	R := []int{1, 2}
	got, want := Moats(nw, R, nil), refMoats(nw, R, nil)
	if d := sameMoats(got, want); d != "" {
		t.Fatal(d)
	}
	if got.Tree.Parent[2] != 0 {
		t.Fatalf("station 2 hangs off %d, want the source (the (0, 2) merge)", got.Tree.Parent[2])
	}
	u := mech.UniformProfile(nw.N(), 1e9)
	if d := sameResult(NewMechanism(nw, nil).RunDetailed(u), refRunDetailed(nw, nil, u)); d != "" {
		t.Fatal(d)
	}
}
