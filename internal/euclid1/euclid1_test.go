package euclid1

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

func alpha1Net(rng *rand.Rand, n int) *wireless.Network {
	return wireless.NewEuclidean(geom.RandomCloud(rng, n, 2, 10), geom.NewPowerCost(1), 0)
}

func lineNetRandom(rng *rand.Rand, n int, alpha float64) *wireless.Network {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	return wireless.NewEuclidean(geom.Line(xs...), geom.NewPowerCost(alpha), rng.Intn(n))
}

func TestAirportGameValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := wireless.NewEuclidean(geom.RandomCloud(rng, 4, 2, 5), geom.NewPowerCost(2), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha != 1")
		}
	}()
	NewAirportGame(nw)
}

func TestAirportCostMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := alpha1Net(rng, 7)
	g := NewAirportGame(nw)
	R := []int{1, 3, 5}
	want := wireless.OptimalMulticastCost(nw, R)
	if got := g.Cost(R); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %g want %g", got, want)
	}
	if g.Cost(nil) != 0 {
		t.Error("empty cost should be 0")
	}
}

func TestAirportShapleyMatchesExactFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		nw := alpha1Net(rng, 8)
		g := NewAirportGame(nw)
		exact := sharing.Shapley(g.Cost)
		var R []int
		for _, a := range nw.AllReceivers() {
			if rng.Intn(2) == 0 {
				R = append(R, a)
			}
		}
		if len(R) == 0 {
			continue
		}
		fast := g.Shapley(R)
		slow := exact.Shares(R)
		for _, i := range R {
			if math.Abs(fast[i]-slow[i]) > 1e-9 {
				t.Fatalf("trial %d agent %d: %g vs %g", trial, i, fast[i], slow[i])
			}
		}
	}
}

func TestAirportShapleyMechanismAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := alpha1Net(rng, 8)
	g := NewAirportGame(nw)
	m := g.ShapleyMechanism()
	for trial := 0; trial < 10; trial++ {
		u := mech.RandomProfile(rng, nw.N(), 20)
		o := m.Run(u)
		if err := errors.Join(mech.CheckNPT(o), mech.CheckVP(u, o), mech.CheckCostRecovery(o)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// 1-BB: shares equal the *optimal* cost of serving R(u).
		opt := wireless.OptimalMulticastCost(nw, o.Receivers)
		if err := mech.CheckBetaBB(o, opt, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	truth := mech.RandomProfile(rng, nw.N(), 20)
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckGroupStrategyproof(m, truth, rng, 200, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckCS(m, truth, 1e9); err != nil {
		t.Error(err)
	}
}

func TestAirportMCEfficient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		nw := alpha1Net(rng, 8)
		g := NewAirportGame(nw)
		m := g.MCMechanism()
		u := mech.RandomProfile(rng, nw.N(), 15)
		o := m.Run(u)
		want := mech.BruteForceNetWorth(nw.AllReceivers(), u, g.Cost)
		if got := o.NetWorth(u); math.Abs(got-want) > 1e-7 {
			t.Fatalf("trial %d: NW %g != optimum %g", trial, got, want)
		}
		if err := mech.CheckNPT(o); err != nil {
			t.Fatal(err)
		}
		if err := mech.CheckVP(u, o); err != nil {
			t.Fatal(err)
		}
	}
	nw := alpha1Net(rng, 7)
	g := NewAirportGame(nw)
	truth := mech.RandomProfile(rng, nw.N(), 15)
	if err := mech.CheckStrategyproof(g.MCMechanism(), truth, nil); err != nil {
		t.Error(err)
	}
}

func TestLineGameValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for d != 1")
		}
	}()
	NewLineGame(alpha1Net(rng, 4))
}

// TestLineGameCostMatchesLineOptimal pins the interval table against
// both exact solvers: Cost against LineOptimal on random receiver sets,
// and CostExtremes of every rank interval against ExactMEMT, a search
// over subsets that shares no line code with the table. The table stops
// its search once the whole line is reached; ExactMEMT never does.
func TestLineGameCostMatchesLineOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		nw := lineNetRandom(rng, 7, 1+rng.Float64()*3)
		g := NewLineGame(nw)
		for sub := 0; sub < 10; sub++ {
			var R []int
			for _, a := range nw.AllReceivers() {
				if rng.Intn(2) == 0 {
					R = append(R, a)
				}
			}
			if len(R) == 0 {
				continue
			}
			want, _ := wireless.LineOptimal(nw, R)
			if got := g.Cost(R); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: Cost %g != LineOptimal %g (R=%v)", trial, got, want, R)
			}
		}
		checkIntervalsExact(t, g, -1)
	}
	// One more line, with a station disabled the way a served PATCH
	// disables one: every cost it takes part in sits at DisabledCost.
	nw := lineNetRandom(rng, 7, 2)
	dead := 0
	if nw.Source() == 0 {
		dead = 1
	}
	if _, err := nw.SetStationEnabled(dead, false); err != nil {
		t.Fatal(err)
	}
	checkIntervalsExact(t, NewLineGame(nw), dead)
}

// checkIntervalsExact requires CostExtremes(f, l) to match ExactMEMT over
// the stations of ranks f..l for every rank interval f ≤ K ≤ l. With
// dead ≥ 0 it leaves out the intervals holding that disabled station:
// the table covers a station by its coordinate, so it serves a disabled
// one at its geometric cost, where ExactMEMT pays DisabledCost
// (ROADMAP item 9).
func checkIntervalsExact(t *testing.T, g *LineGame, dead int) {
	t.Helper()
	nw, lay := g.Net, g.lay
	for f := 0; f <= lay.K; f++ {
		for l := lay.K; l < nw.N(); l++ {
			if dead >= 0 && f <= lay.Rank[dead] && lay.Rank[dead] <= l {
				continue
			}
			var R []int
			for r := f; r <= l; r++ {
				if v := lay.Order[r]; v != nw.Source() {
					R = append(R, v)
				}
			}
			want, _ := wireless.ExactMEMT(nw, R)
			if got := g.CostExtremes(f, l); math.Abs(got-want) > 1e-9 {
				t.Fatalf("ranks %d..%d (source rank %d): CostExtremes %g != ExactMEMT %g", f, l, lay.K, got, want)
			}
		}
	}
}

func TestLineShapleyMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 8; trial++ {
		nw := lineNetRandom(rng, 8, 2)
		g := NewLineGame(nw)
		exact := sharing.Shapley(g.Cost)
		var R []int
		for _, a := range nw.AllReceivers() {
			if rng.Intn(2) == 0 {
				R = append(R, a)
			}
		}
		if len(R) == 0 {
			continue
		}
		fast := g.Shapley(R)
		slow := exact.Shares(R)
		for _, i := range R {
			if math.Abs(fast[i]-slow[i]) > 1e-7 {
				t.Fatalf("trial %d agent %d: counting %g vs enumeration %g (R=%v)",
					trial, i, fast[i], slow[i], R)
			}
		}
	}
}

func TestLineShapleyBudgetBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nw := lineNetRandom(rng, 10, 2.5)
	g := NewLineGame(nw)
	for trial := 0; trial < 20; trial++ {
		var R []int
		for _, a := range nw.AllReceivers() {
			if rng.Intn(2) == 0 {
				R = append(R, a)
			}
		}
		if len(R) == 0 {
			continue
		}
		shares := g.Shapley(R)
		var tot float64
		for _, v := range shares {
			tot += v
		}
		if want := g.Cost(R); math.Abs(tot-want) > 1e-7 {
			t.Fatalf("trial %d: Σ %g != C* %g", trial, tot, want)
		}
	}
}

func TestLineShapleyMechanismAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nw := lineNetRandom(rng, 8, 2)
	g := NewLineGame(nw)
	m := g.ShapleyMechanism()
	for trial := 0; trial < 8; trial++ {
		u := mech.RandomProfile(rng, nw.N(), 25)
		o := m.Run(u)
		if err := errors.Join(mech.CheckNPT(o), mech.CheckVP(u, o), mech.CheckCostRecovery(o)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := g.Cost(o.Receivers)
		if err := mech.CheckBetaBB(o, opt, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
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

func TestLineMCEfficient(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		nw := lineNetRandom(rng, 8, 2)
		g := NewLineGame(nw)
		m := g.MCMechanism()
		u := mech.RandomProfile(rng, nw.N(), 20)
		o := m.Run(u)
		want := mech.BruteForceNetWorth(nw.AllReceivers(), u, g.Cost)
		if got := o.NetWorth(u); math.Abs(got-want) > 1e-7 {
			t.Fatalf("trial %d: NW %g != optimum %g", trial, got, want)
		}
		if err := mech.CheckNPT(o); err != nil {
			t.Fatal(err)
		}
		if err := mech.CheckVP(u, o); err != nil {
			t.Fatal(err)
		}
	}
}

// Empirical probe of the Lemma 3.1 submodularity claim for d = 1 using
// the true optimal cost (our LineOptimal, which is strictly stronger than
// the paper's chain construction). Violations, if any, are collected by
// experiment E8; here we only require that the checker runs and that the
// cost is monotone on nested sets — monotonicity is immediate from the
// definition.
func TestLineCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nw := lineNetRandom(rng, 9, 2)
	g := NewLineGame(nw)
	agents := nw.AllReceivers()
	for trial := 0; trial < 100; trial++ {
		var Q, R []int
		for _, a := range agents {
			switch rng.Intn(3) {
			case 0:
				Q = append(Q, a)
				R = append(R, a)
			case 1:
				R = append(R, a)
			}
		}
		if g.Cost(Q) > g.Cost(R)+1e-9 {
			t.Fatalf("monotonicity violated: C(%v)=%g > C(%v)=%g", Q, g.Cost(Q), R, g.Cost(R))
		}
	}
}
