package wireless

import (
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/geom"
	"wmcs/internal/graph"
)

func lineNet(alpha float64, src float64, xs ...float64) *Network {
	pts := geom.Line(xs...)
	srcIdx := -1
	for i, p := range pts {
		if p[0] == src {
			srcIdx = i
		}
	}
	return NewEuclidean(pts, geom.NewPowerCost(alpha), srcIdx)
}

func randomNet(rng *rand.Rand, n, d int, alpha float64) *Network {
	pts := geom.RandomCloud(rng, n, d, 10)
	return NewEuclidean(pts, geom.NewPowerCost(alpha), 0)
}

func TestNetworkBasics(t *testing.T) {
	nw := lineNet(2, 0, 0, 1, 3)
	if nw.N() != 3 || nw.Source() != 0 {
		t.Fatalf("N=%d src=%d", nw.N(), nw.Source())
	}
	if nw.C(0, 2) != 9 || nw.C(2, 0) != 9 {
		t.Errorf("C(0,2) = %g want 9", nw.C(0, 2))
	}
	if !nw.IsEuclidean() || nw.Dim() != 1 {
		t.Error("Euclidean metadata wrong")
	}
	if got := nw.AllReceivers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("AllReceivers = %v", got)
	}
	if g := nw.CompleteGraph(); g.M() != 3 {
		t.Errorf("complete graph M = %d", g.M())
	}
}

func TestNewSymmetricValidatesSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSymmetric(graph.NewMatrix(3), 5)
}

func TestReachSetAndFeasible(t *testing.T) {
	nw := lineNet(2, 0, 0, 1, 2, 5)
	// Power 1 at source reaches station 1 only; power 1 there reaches 2.
	a := Assignment{1, 1, 0, 0}
	reach := nw.ReachSet(a)
	if !reach[1] || !reach[2] || reach[3] {
		t.Errorf("reach = %v", reach)
	}
	if !nw.Feasible(a, []int{1, 2}) {
		t.Error("should be feasible for {1,2}")
	}
	if nw.Feasible(a, []int{3}) {
		t.Error("station 3 is out of range")
	}
	if got := a.Total(); got != 2 {
		t.Errorf("Total = %g", got)
	}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestTreeOperations(t *testing.T) {
	tr := NewTree(5, 0)
	tr.Parent[1] = 0
	tr.Parent[2] = 1
	tr.Parent[3] = 1
	if !tr.InTree(3) || tr.InTree(4) {
		t.Error("InTree wrong")
	}
	ch := tr.Children()
	if len(ch[1]) != 2 || ch[1][0] != 2 {
		t.Errorf("Children = %v", ch)
	}
	if got := tr.Members(); len(got) != 4 {
		t.Errorf("Members = %v", got)
	}
	if !tr.Spans([]int{2, 3}) || tr.Spans([]int{4}) {
		t.Error("Spans wrong")
	}
	pruned := PruneTree(tr, []int{2})
	if pruned.InTree(3) || !pruned.InTree(2) || !pruned.InTree(1) {
		t.Errorf("PruneTree parent = %v", pruned.Parent)
	}
}

func TestTreeSpansDetectsCycle(t *testing.T) {
	tr := NewTree(3, 0)
	tr.Parent[1] = 2
	tr.Parent[2] = 1 // cycle 1↔2 detached from root
	if tr.Spans([]int{1}) {
		t.Error("cycle must not span")
	}
}

func TestAssignmentForTree(t *testing.T) {
	nw := lineNet(1, 0, 0, 1, 2, 3)
	tr := NewTree(4, 0)
	tr.Parent[1] = 0
	tr.Parent[2] = 0 // source reaches 1 and 2: power = max(1, 2) = 2
	tr.Parent[3] = 2 // station 2 reaches 3: power 1
	a := nw.AssignmentForTree(tr)
	if a[0] != 2 || a[2] != 1 || a[1] != 0 {
		t.Errorf("assignment = %v", a)
	}
	if !nw.Feasible(a, []int{1, 2, 3}) {
		t.Error("tree assignment must be feasible")
	}
}

func TestTreeFromUndirectedEdges(t *testing.T) {
	edges := []graph.Edge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}}
	tr := TreeFromUndirectedEdges(4, edges, 2)
	if tr.Parent[1] != 2 || tr.Parent[0] != 1 || tr.InTree(3) {
		t.Errorf("parents = %v", tr.Parent)
	}
}

func TestMSTBroadcastFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		nw := randomNet(rng, 8, 2, 2)
		tr, a := MSTBroadcast(nw)
		if !tr.Spans(nw.AllReceivers()) {
			t.Fatalf("trial %d: MST tree does not span", trial)
		}
		if !nw.Feasible(a, nw.AllReceivers()) {
			t.Fatalf("trial %d: MST assignment infeasible", trial)
		}
		// Tree power ≤ MST weight (max child edge ≤ sum of child edges).
		var mstW float64
		for v, p := range tr.Parent {
			if p >= 0 {
				mstW += nw.C(p, v)
			}
		}
		if a.Total() > mstW+1e-9 {
			t.Fatalf("trial %d: power %g exceeds MST weight %g", trial, a.Total(), mstW)
		}
	}
}

func TestBIPBroadcastFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		nw := randomNet(rng, 9, 2, 2)
		tr, a := BIPBroadcast(nw)
		if !tr.Spans(nw.AllReceivers()) || !nw.Feasible(a, nw.AllReceivers()) {
			t.Fatalf("trial %d: BIP infeasible", trial)
		}
	}
}

func TestSteinerMulticastFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		nw := randomNet(rng, 10, 2, 2)
		R := []int{1, 4, 7}
		tr, a := SteinerMulticast(nw, R)
		if !tr.Spans(R) || !nw.Feasible(a, R) {
			t.Fatalf("trial %d: Steiner multicast infeasible", trial)
		}
		// Pruning must not keep receiver-free branches: every leaf is a
		// receiver or the root.
		ch := tr.Children()
		isR := map[int]bool{}
		for _, r := range R {
			isR[r] = true
		}
		for _, v := range tr.Members() {
			if len(ch[v]) == 0 && v != tr.Root && !isR[v] {
				t.Fatalf("trial %d: non-receiver leaf %d survived pruning", trial, v)
			}
		}
	}
}

// bruteMEMT enumerates all power-level combinations (tiny n only).
func bruteMEMT(nw *Network, R []int) float64 {
	n := nw.N()
	levels := make([][]float64, n)
	for i := 0; i < n; i++ {
		ls := []float64{0}
		for j := 0; j < n; j++ {
			if j != i {
				ls = append(ls, nw.C(i, j))
			}
		}
		levels[i] = ls
	}
	best := math.Inf(1)
	var rec func(i int, a Assignment, cost float64)
	rec = func(i int, a Assignment, cost float64) {
		if cost >= best {
			return
		}
		if i == n {
			if nw.Feasible(a, R) {
				best = cost
			}
			return
		}
		for _, p := range levels[i] {
			a[i] = p
			rec(i+1, a, cost+p)
		}
		a[i] = 0
	}
	rec(0, make(Assignment, n), 0)
	return best
}

func TestExactMEMTMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		nw := randomNet(rng, 5, 2, 1+rng.Float64()*3)
		var R []int
		for _, v := range nw.AllReceivers() {
			if rng.Float64() < 0.7 {
				R = append(R, v)
			}
		}
		if len(R) == 0 {
			R = []int{1}
		}
		want := bruteMEMT(nw, R)
		got, a := ExactMEMT(nw, R)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: exact=%g brute=%g", trial, got, want)
		}
		if !nw.Feasible(a, R) {
			t.Fatalf("trial %d: exact assignment infeasible", trial)
		}
		if math.Abs(a.Total()-got) > 1e-9 {
			t.Fatalf("trial %d: assignment total %g != reported %g", trial, a.Total(), got)
		}
	}
}

func TestExactMEMTEmptyReceivers(t *testing.T) {
	nw := lineNet(2, 0, 0, 1)
	c, a := ExactMEMT(nw, nil)
	if c != 0 || a.Total() != 0 {
		t.Errorf("empty multicast should cost 0, got %g", c)
	}
}

func TestExactMEMTGuardsSize(t *testing.T) {
	pts := geom.RandomCloud(rand.New(rand.NewSource(1)), MaxExactStations+1, 2, 5)
	nw := NewEuclidean(pts, geom.NewPowerCost(2), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized instance")
		}
	}()
	ExactMEMT(nw, nw.AllReceivers())
}

func TestHeuristicsNeverBeatExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		nw := randomNet(rng, 8, 2, 2)
		R := nw.AllReceivers()
		opt, _ := ExactMEMT(nw, R)
		_, am := MSTBroadcast(nw)
		_, ab := BIPBroadcast(nw)
		_, as := SteinerMulticast(nw, R)
		for name, a := range map[string]Assignment{"mst": am, "bip": ab, "steiner": as} {
			if a.Total() < opt-1e-9 {
				t.Fatalf("trial %d: %s total %g beats optimum %g", trial, name, a.Total(), opt)
			}
		}
	}
}

func TestAlpha1OptimalMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		nw := randomNet(rng, 7, 2, 1)
		R := []int{1, 3, 5}
		want, _ := ExactMEMT(nw, R)
		got, a := Alpha1Optimal(nw, R)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: alpha1=%g exact=%g", trial, got, want)
		}
		if !nw.Feasible(a, R) {
			t.Fatalf("trial %d: infeasible", trial)
		}
	}
}

func TestLineOptimalMatchesExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		pts := geom.Line(xs...)
		src := rng.Intn(n)
		alpha := 1 + rng.Float64()*3
		nw := NewEuclidean(pts, geom.NewPowerCost(alpha), src)
		var R []int
		for _, v := range nw.AllReceivers() {
			if rng.Float64() < 0.6 {
				R = append(R, v)
			}
		}
		if len(R) == 0 {
			continue
		}
		want, _ := ExactMEMT(nw, R)
		got, a := LineOptimal(nw, R)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: line=%g exact=%g (src=%d xs=%v R=%v α=%g)",
				trial, got, want, src, xs, R, alpha)
		}
		if !nw.Feasible(a, R) || math.Abs(a.Total()-got) > 1e-9 {
			t.Fatalf("trial %d: assignment inconsistent", trial)
		}
		// The paper's chain construction is a feasible upper bound.
		chain, ca := LineChainCanonical(nw, R)
		if chain < got-1e-9 {
			t.Fatalf("trial %d: canonical chain %g beats optimum %g", trial, chain, got)
		}
		if !nw.Feasible(ca, R) || math.Abs(ca.Total()-chain) > 1e-9 {
			t.Fatalf("trial %d: chain assignment inconsistent", trial)
		}
	}
}

// The instance on which the Lemma 3.1 chain construction is strictly
// suboptimal: a relay left of the source covers the rightmost receiver
// with the same disk it uses to bridge a large left gap, so the canonical
// form (which makes the source pay for the right side again) loses.
func TestLineChainCanonicalCanBeSuboptimal(t *testing.T) {
	xs := []float64{0.436, 8.256, 2.739, 6.769, 2.950, 1.922, 2.126, 6.973, 2.791}
	pts := geom.Line(xs...)
	nw := NewEuclidean(pts, geom.PowerCost{Alpha: 3.0447505838318136, Kappa: 1}, 7)
	R := []int{1, 2, 5, 8}
	opt, _ := LineOptimal(nw, R)
	exact, _ := ExactMEMT(nw, R)
	if math.Abs(opt-exact) > 1e-9 {
		t.Fatalf("LineOptimal %g != ExactMEMT %g", opt, exact)
	}
	chain, _ := LineChainCanonical(nw, R)
	if chain <= opt+1e-9 {
		t.Fatalf("expected strict gap: chain=%g opt=%g", chain, opt)
	}
}

func TestLineOptimalEmpty(t *testing.T) {
	nw := lineNet(2, 0, 0, 1, 2)
	c, a := LineOptimal(nw, nil)
	if c != 0 || a.Total() != 0 {
		t.Error("empty receivers should cost 0")
	}
}

func TestOptimalMulticastCostDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// α = 1 path.
	nw := randomNet(rng, 6, 2, 1)
	R := []int{1, 2}
	want, _ := ExactMEMT(nw, R)
	if got := OptimalMulticastCost(nw, R); math.Abs(got-want) > 1e-9 {
		t.Errorf("alpha1 dispatch: %g vs %g", got, want)
	}
	// d = 1 path.
	nl := lineNet(2, 0, 0, 1, 2, 4)
	want, _ = ExactMEMT(nl, []int{3})
	if got := OptimalMulticastCost(nl, []int{3}); math.Abs(got-want) > 1e-9 {
		t.Errorf("line dispatch: %g vs %g", got, want)
	}
	// generic path.
	na := NewSymmetric(nl.CostMatrix(), 0)
	want, _ = ExactMEMT(na, []int{3})
	if got := OptimalMulticastCost(na, []int{3}); math.Abs(got-want) > 1e-9 {
		t.Errorf("generic dispatch: %g vs %g", got, want)
	}
	if OptimalMulticastCost(nw, nil) != 0 {
		t.Error("empty R should cost 0")
	}
}

func TestSortByCoordinate(t *testing.T) {
	nw := lineNet(1, 3, 3, 1, 2)
	order := nw.SortByCoordinate()
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("order = %v", order)
	}
	n2 := randomNet(rand.New(rand.NewSource(1)), 4, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("SortByCoordinate should panic on d=2")
		}
	}()
	n2.SortByCoordinate()
}
