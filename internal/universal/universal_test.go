package universal

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/geom"
	"wmcs/internal/mech"
	"wmcs/internal/sharing"
	"wmcs/internal/wireless"
)

// chainNet builds the 1-D network 0 — 1 — 2 at unit spacing, source 0,
// with the universal tree fixed to the chain 0→1→2.
func chainNet() (*wireless.Network, *Tree) {
	nw := wireless.NewEuclidean(geom.Line(0, 1, 2), geom.NewPowerCost(1), 0)
	span := wireless.NewTree(3, 0)
	span.Parent[1] = 0
	span.Parent[2] = 1
	return nw, FromTree(nw, span)
}

// starNet builds a source with three leaves at distances 1, 2, 3 (the
// airport game) using an SPT universal tree.
func starNet() (*wireless.Network, *Tree) {
	pts := []geom.Point{{0, 0}, {1, 0}, {0, 2}, {-3, 0}}
	nw := wireless.NewEuclidean(pts, geom.NewPowerCost(1), 0)
	return nw, SPT(nw)
}

func randomTree(rng *rand.Rand, n, d int, alpha float64) (*wireless.Network, *Tree) {
	pts := geom.RandomCloud(rng, n, d, 10)
	nw := wireless.NewEuclidean(pts, geom.NewPowerCost(alpha), 0)
	return nw, SPT(nw)
}

func TestCostChain(t *testing.T) {
	_, ut := chainNet()
	if got := ut.Cost([]int{2}); got != 2 {
		t.Errorf("C({2}) = %g want 2", got)
	}
	if got := ut.Cost([]int{1}); got != 1 {
		t.Errorf("C({1}) = %g want 1", got)
	}
	if got := ut.Cost([]int{1, 2}); got != 2 {
		t.Errorf("C({1,2}) = %g want 2", got)
	}
	if got := ut.Cost(nil); got != 0 {
		t.Errorf("C(∅) = %g want 0", got)
	}
}

func TestAssignmentFeasible(t *testing.T) {
	nw, ut := chainNet()
	a := nw.AssignmentForTree(ut.Multicast([]int{2}))
	if !nw.Feasible(a, []int{2}) {
		t.Error("induced assignment infeasible")
	}
}

func TestShapleyChainWorkedExample(t *testing.T) {
	_, ut := chainNet()
	got := ut.Shapley([]int{1, 2})
	if math.Abs(got[1]-0.5) > 1e-12 || math.Abs(got[2]-1.5) > 1e-12 {
		t.Errorf("shares = %v want {1:0.5, 2:1.5}", got)
	}
	got = ut.Shapley([]int{2})
	if math.Abs(got[2]-2) > 1e-12 {
		t.Errorf("single receiver share = %v", got)
	}
}

func TestShapleyStarIsAirportGame(t *testing.T) {
	_, ut := starNet()
	got := ut.Shapley([]int{1, 2, 3})
	want := map[int]float64{1: 1.0 / 3, 2: 1.0/3 + 0.5, 3: 1.0/3 + 0.5 + 1}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-9 {
			t.Errorf("share[%d] = %g want %g", i, got[i], w)
		}
	}
}

// Property (Lemma 2.1): universal-tree cost is non-decreasing and
// submodular on random networks.
func TestCostSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		nw, ut := randomTree(rng, 9, 2, 1+rng.Float64()*3)
		if err := sharing.CheckSubmodular(ut.CostFunc(), nw.AllReceivers(), rng, 150, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// Property: the closed-form tree Shapley equals the exponential Eq. (4)
// Shapley value of the induced cost function.
func TestShapleyMatchesExactFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		nw, ut := randomTree(rng, 8, 2, 2)
		agents := nw.AllReceivers()
		exact := sharing.Shapley(ut.CostFunc())
		// Random subset R.
		var R []int
		for _, a := range agents {
			if rng.Intn(2) == 0 {
				R = append(R, a)
			}
		}
		if len(R) == 0 {
			continue
		}
		fast := ut.Shapley(R)
		slow := exact.Shares(R)
		for _, i := range R {
			if math.Abs(fast[i]-slow[i]) > 1e-7 {
				t.Fatalf("trial %d: agent %d: closed-form %g vs exact %g (R=%v)",
					trial, i, fast[i], slow[i], R)
			}
		}
	}
}

func TestShapleyBudgetBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	nw, ut := randomTree(rng, 12, 2, 2)
	for trial := 0; trial < 30; trial++ {
		var R []int
		for _, a := range nw.AllReceivers() {
			if rng.Intn(2) == 0 {
				R = append(R, a)
			}
		}
		shares := ut.Shapley(R)
		var tot float64
		for _, v := range shares {
			tot += v
		}
		if want := ut.Cost(R); math.Abs(tot-want) > 1e-9 {
			t.Fatalf("trial %d: Σshares %g != C(R) %g", trial, tot, want)
		}
	}
}

func TestShapleyMechanismAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	nw, ut := randomTree(rng, 8, 2, 2)
	m := ShapleyMechanism(ut)
	if m.Name() == "" || len(m.Agents()) != nw.N()-1 {
		t.Fatal("metadata wrong")
	}
	for trial := 0; trial < 10; trial++ {
		u := mech.RandomProfile(rng, nw.N(), 30)
		o := m.Run(u)
		if err := errors.Join(mech.CheckNPT(o), mech.CheckVP(u, o), mech.CheckCostRecovery(o)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(o.TotalShares()-o.Cost) > 1e-7 {
			t.Fatalf("trial %d: not budget balanced: %g vs %g", trial, o.TotalShares(), o.Cost)
		}
	}
	truth := mech.RandomProfile(rng, nw.N(), 30)
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckGroupStrategyproof(m, truth, rng, 150, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckCS(m, truth, 1e9); err != nil {
		t.Error(err)
	}
}

func TestLargestEfficientSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		nw, ut := randomTree(rng, 8, 2, 2)
		u := mech.RandomProfile(rng, nw.N(), 20)
		_, nwGot := ut.LargestEfficientSet(u)
		want := mech.BruteForceNetWorth(nw.AllReceivers(), u, func(R []int) float64 { return ut.Cost(R) })
		if math.Abs(nwGot-want) > 1e-7 {
			t.Fatalf("trial %d: DP net worth %g != brute force %g", trial, nwGot, want)
		}
	}
}

func TestLargestEfficientSetIsLargest(t *testing.T) {
	// Free riders (u = 0) inside the efficient tree must be included.
	nw, ut := chainNet()
	u := mech.Profile{0, 0, 5} // receiver 2 pays for the chain; 1 rides free
	R, netw := ut.LargestEfficientSet(u)
	if len(R) != 2 {
		t.Fatalf("R = %v, want both stations", R)
	}
	if math.Abs(netw-3) > 1e-12 { // 5 − C({2}) = 5 − 2
		t.Errorf("NW = %g want 3", netw)
	}
	_ = nw
}

func TestMCMechanism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nw, ut := randomTree(rng, 8, 2, 2)
	m := MCMechanism(ut)
	if m.Name() != "tree-mc" { // package-internal default; mechreg assigns the public name
		t.Fatal("name wrong")
	}
	for trial := 0; trial < 10; trial++ {
		u := mech.RandomProfile(rng, nw.N(), 25)
		o := m.Run(u)
		if err := mech.CheckNPT(o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := mech.CheckVP(u, o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Efficiency: outcome's net worth equals the brute-force optimum.
		want := mech.BruteForceNetWorth(nw.AllReceivers(), u, func(R []int) float64 { return ut.Cost(R) })
		if got := o.NetWorth(u); math.Abs(got-want) > 1e-7 {
			t.Fatalf("trial %d: NW %g != optimal %g", trial, got, want)
		}
	}
	truth := mech.RandomProfile(rng, nw.N(), 25)
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckCS(m, truth, 1e9); err != nil {
		t.Error(err)
	}
}

// The MC mechanism typically runs a deficit (it is efficient, not BB);
// verify it never collects more than the cost on random profiles, i.e.,
// no budget surplus, as stated in §1.1.
func TestMCNeverSurplus(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nw, ut := randomTree(rng, 7, 2, 2)
	m := MCMechanism(ut)
	for trial := 0; trial < 20; trial++ {
		u := mech.RandomProfile(rng, nw.N(), 25)
		o := m.Run(u)
		if o.TotalShares() > o.Cost+1e-7 {
			t.Fatalf("trial %d: surplus %g > cost %g", trial, o.TotalShares(), o.Cost)
		}
	}
}

// §1.1 states the MC mechanism is not group strategyproof. Demonstrate a
// concrete collusion: on a chain, the far receiver's Clarke pivot depends
// on the near receiver's report, so an over-reporting coalition can shift
// pivots in a member's favor without hurting the others.
func TestMCNotGroupStrategyproof(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	found := false
	for trial := 0; trial < 60 && !found; trial++ {
		nw, ut := randomTree(rng, 6, 2, 2)
		m := MCMechanism(ut)
		truth := mech.RandomProfile(rng, nw.N(), 12)
		if err := mech.CheckGroupStrategyproof(m, truth, rng, 400, nil); err != nil {
			found = true
		}
	}
	if !found {
		t.Error("expected to find an MC collusion within the sampled trials (§1.1: MC is not GSP)")
	}
}

func TestSPTvsMSTTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nw, _ := randomTree(rng, 10, 2, 2)
	spt := SPT(nw)
	mstT := MST(nw)
	all := nw.AllReceivers()
	if !spt.Span.Spans(all) || !mstT.Span.Spans(all) {
		t.Fatal("universal trees must span all stations")
	}
	// Both are valid universal trees; their broadcast costs may differ but
	// both must be feasible.
	for _, ut := range []*Tree{spt, mstT} {
		if !nw.Feasible(ut.Net.AssignmentForTree(ut.Multicast(all)), all) {
			t.Fatal("broadcast assignment infeasible")
		}
	}
}
