package jv

import (
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/geom"
	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/mst"
	"wmcs/internal/paths"
	"wmcs/internal/sharing"
	"wmcs/internal/steiner"
	"wmcs/internal/wireless"
)

func TestMoatsTwoTerminalLine(t *testing.T) {
	// Source at 0, receiver at distance 2, α = 1: both moats grow and
	// meet at time 1; the receiver pays 2×1 = 2, exactly the closure MST
	// weight and the tree cost.
	nw := wireless.NewEuclidean(geom.Line(0, 2), geom.NewPowerCost(1), 0)
	res := Moats(nw, []int{1}, nil)
	if math.Abs(res.Dual-1) > 1e-9 {
		t.Errorf("dual = %g want 1", res.Dual)
	}
	if math.Abs(res.Shares[1]-2) > 1e-9 {
		t.Errorf("share = %g want 2", res.Shares[1])
	}
	if math.Abs(res.Assignment.Total()-2) > 1e-9 {
		t.Errorf("assignment total = %g want 2", res.Assignment.Total())
	}
	if !nw.Feasible(res.Assignment, []int{1}) {
		t.Error("infeasible")
	}
}

// Invariant of the all-grow process: total shares equal the MST weight of
// the shortest-path metric closure over R ∪ {s}.
func TestMoatsTotalIsClosureMST(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		nw := instances.RandomEuclidean(rng, 7, 2, 1+rng.Float64()*2, 10)
		R := nw.AllReceivers()[:1+rng.Intn(5)]
		res := Moats(nw, R, nil)
		var tot float64
		for _, s := range res.Shares {
			tot += s
		}
		terms := append([]int{nw.Source()}, R...)
		closure, _ := paths.MetricClosure(nw.CompleteGraph(), terms)
		mstW := mst.Weight(mst.PrimMatrix(closure, 0))
		if math.Abs(tot-mstW) > 1e-7 {
			t.Fatalf("trial %d: Σshares %g != closure MST %g", trial, tot, mstW)
		}
	}
}

func TestMoatsSharesCoverTreeAndRespect2OPT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		nw := instances.RandomEuclidean(rng, 6+rng.Intn(4), 2, 1+rng.Float64()*2, 10)
		var R []int
		for _, v := range nw.AllReceivers() {
			if rng.Float64() < 0.7 {
				R = append(R, v)
			}
		}
		if len(R) == 0 {
			R = []int{1}
		}
		res := Moats(nw, R, nil)
		if !nw.Feasible(res.Assignment, R) {
			t.Fatalf("trial %d: infeasible", trial)
		}
		var tot float64
		for _, s := range res.Shares {
			tot += s
		}
		// Cost recovery against the realized assignment.
		if tot < res.Assignment.Total()-1e-9 {
			t.Fatalf("trial %d: shares %g below assignment cost %g", trial, tot, res.Assignment.Total())
		}
		// 2-BB against the optimal *Steiner tree* (the JV comparator).
		terms := append([]int{nw.Source()}, R...)
		opt := steiner.DreyfusWagner(nw.CompleteGraph(), terms)
		if tot > 2*opt.Cost+1e-9 {
			t.Fatalf("trial %d: shares %g exceed 2×Steiner OPT %g", trial, tot, 2*opt.Cost)
		}
	}
}

func TestMoatsCrossMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		nw := instances.RandomEuclidean(rng, 8, 2, 2, 10)
		xi := Method(nw, nil)
		if err := sharing.CheckCrossMonotone(xi, nw.AllReceivers(), rng, 60, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWeightedFamilyStillRecoversCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := instances.RandomEuclidean(rng, 8, 2, 2, 10)
	R := nw.AllReceivers()
	w := func(a int) float64 { return 1 + float64(a%3) } // a non-uniform f_i
	res := Moats(nw, R, w)
	var tot float64
	for _, s := range res.Shares {
		tot += s
	}
	if tot < res.Assignment.Total()-1e-9 {
		t.Fatalf("weighted family broke cost recovery: %g < %g", tot, res.Assignment.Total())
	}
	// Total shares are weight-independent (2×dual); only the split moves.
	uni := Moats(nw, R, nil)
	var totU float64
	for _, s := range uni.Shares {
		totU += s
	}
	if math.Abs(tot-totU) > 1e-9 {
		t.Errorf("total shares should not depend on weights: %g vs %g", tot, totU)
	}
}

func TestMechanismAxiomsAndGSP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw := instances.RandomEuclidean(rng, 7, 2, 2, 10)
	m := NewMechanism(nw, nil)
	if m.Name() != "moat" || len(m.Agents()) != 6 { // package-internal default; mechreg assigns the public name
		t.Fatal("metadata wrong")
	}
	for trial := 0; trial < 8; trial++ {
		u := mech.RandomProfile(rng, nw.N(), 80)
		res := m.RunDetailed(u)
		o := res.Outcome
		if err := mech.CheckNPT(o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := mech.CheckVP(u, o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(o.Receivers) > 0 {
			if err := mech.CheckCostRecovery(o); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !nw.Feasible(res.Assignment, o.Receivers) {
				t.Fatalf("trial %d: infeasible", trial)
			}
		}
	}
	truth := mech.RandomProfile(rng, nw.N(), 80)
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckGroupStrategyproof(m, truth, rng, 100, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckCS(m, truth, 1e9); err != nil {
		t.Error(err)
	}
}

func TestBetaBoundConstants(t *testing.T) {
	if BetaBound(2) != 12 {
		t.Errorf("d=2 bound = %g want 12 (Theorem 3.7)", BetaBound(2))
	}
	if BetaBound(3) != 2*(27-1) {
		t.Errorf("d=3 bound = %g want 52", BetaBound(3))
	}
}

// Theorem 3.6 end to end at small scale: shares ≤ 2(3^d −1)·C*(R) with
// C* from the exact solver.
func TestTheorem36BoundSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		nw := instances.RandomEuclidean(rng, 7, 2, 2, 10)
		m := NewMechanism(nw, nil)
		u := mech.UniformProfile(nw.N(), 1e8)
		o := m.Run(u)
		opt, _ := wireless.ExactMEMT(nw, o.Receivers)
		if o.TotalShares() > BetaBound(2)*opt+1e-7 {
			t.Fatalf("trial %d: shares %g exceed 12×opt %g", trial, o.TotalShares(), opt)
		}
	}
}
