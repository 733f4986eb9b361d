package sharing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/mech"
)

// airportCost is the classic airport game: C(R) = max_{i∈R} c_i.
// It is non-decreasing and submodular; Shapley shares have the known
// closed form (runway increments split among larger players).
func airportCost(c []float64) CostFunc {
	return func(R []int) float64 {
		var m float64
		for _, i := range R {
			if c[i] > m {
				m = c[i]
			}
		}
		return m
	}
}

func TestShapleyAirportClosedForm(t *testing.T) {
	c := []float64{1, 2, 3}
	sh := Shapley(airportCost(c))
	got := sh.Shares([]int{0, 1, 2})
	want := map[int]float64{0: 1.0 / 3, 1: 1.0/3 + 0.5, 2: 1.0/3 + 0.5 + 1}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-9 {
			t.Errorf("share[%d] = %g want %g", i, got[i], w)
		}
	}
	var tot float64
	for _, v := range got {
		tot += v
	}
	if math.Abs(tot-3) > 1e-9 {
		t.Errorf("total = %g want C(R)=3", tot)
	}
}

func TestShapleySymmetricGame(t *testing.T) {
	cost := func(R []int) float64 { return float64(len(R)) }
	sh := Shapley(cost)
	got := sh.Shares([]int{0, 1, 2, 3})
	for i, v := range got {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("share[%d] = %g want 1", i, v)
		}
	}
}

func TestShapleyEmptyAndSubsets(t *testing.T) {
	sh := Shapley(func(R []int) float64 { return float64(len(R)) * 2 })
	if got := sh.Shares(nil); len(got) != 0 {
		t.Error("empty R should have no shares")
	}
	got := sh.Shares([]int{7})
	if math.Abs(got[7]-2) > 1e-9 {
		t.Errorf("singleton share = %g", got[7])
	}
}

func TestShapleyBudgetBalanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := make([]float64, 6)
	for i := range c {
		c[i] = rng.Float64() * 10
	}
	agents := []int{0, 1, 2, 3, 4, 5}
	sh := Shapley(airportCost(c))
	if err := CheckBudgetBalanced(sh, airportCost(c), agents, rng, 100, 1e-7); err != nil {
		t.Error(err)
	}
}

func TestShapleyCrossMonotoneOnSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := make([]float64, 6)
	for i := range c {
		c[i] = rng.Float64() * 10
	}
	agents := []int{0, 1, 2, 3, 4, 5}
	sh := Shapley(airportCost(c))
	if err := CheckCrossMonotone(sh, agents, rng, 200, 1e-7); err != nil {
		t.Error(err)
	}
}

func TestCheckCrossMonotoneCatchesViolation(t *testing.T) {
	// Anti-monotone method: shares grow with the set, so a member of a
	// smaller Q pays less than in R ⊇ Q — the opposite of
	// cross-monotonicity's ξ(Q, i) ≥ ξ(R, i).
	bad := MethodFunc(func(R []int) map[int]float64 {
		out := map[int]float64{}
		for _, i := range R {
			out[i] = float64(len(R))
		}
		return out
	})
	rng := rand.New(rand.NewSource(7))
	if err := CheckCrossMonotone(bad, []int{0, 1, 2, 3}, rng, 200, 1e-9); err == nil {
		t.Error("violation missed")
	}
}

func TestCheckSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	agents := []int{0, 1, 2, 3}
	if err := CheckSubmodular(airportCost([]float64{1, 2, 3, 4}), agents, rng, 200, 1e-9); err != nil {
		t.Errorf("airport game flagged: %v", err)
	}
	super := func(R []int) float64 { return float64(len(R) * len(R)) }
	if err := CheckSubmodular(super, agents, rng, 200, 1e-9); err == nil {
		t.Error("superadditive cost passed")
	}
	nonMono := func(R []int) float64 { return 5 - float64(len(R)) }
	if err := CheckSubmodular(nonMono, agents, rng, 200, 1e-9); err == nil {
		t.Error("non-monotone cost passed")
	}
}

func TestMoulinShenkerAirport(t *testing.T) {
	c := []float64{1, 2, 3}
	agents := []int{0, 1, 2}
	sh := Shapley(airportCost(c))
	u := mech.Profile{0.2, 1, 5}
	res := MoulinShenker(agents, sh, u)
	if len(res.Receivers) != 2 || res.Receivers[0] != 1 || res.Receivers[1] != 2 {
		t.Fatalf("receivers = %v", res.Receivers)
	}
	// On {1,2}: increments 2 shared by both (1 each), then 1 paid by 2.
	if math.Abs(res.Shares[1]-1) > 1e-9 || math.Abs(res.Shares[2]-2) > 1e-9 {
		t.Errorf("shares = %v", res.Shares)
	}
	if res.Rounds < 2 {
		t.Errorf("expected at least 2 rounds, got %d", res.Rounds)
	}
}

func TestMoulinShenkerAllDrop(t *testing.T) {
	c := []float64{5, 5}
	sh := Shapley(airportCost(c))
	res := MoulinShenker([]int{0, 1}, sh, mech.Profile{0.1, 0.1})
	if len(res.Receivers) != 0 {
		t.Errorf("receivers = %v", res.Receivers)
	}
}

func TestMechanismFromMethodAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := []float64{1, 2, 3, 4}
	agents := []int{0, 1, 2, 3}
	cost := airportCost(c)
	m := &MechanismFromMethod{
		MechName: "shapley-airport",
		AgentSet: agents,
		Xi:       Shapley(cost),
		Cost:     cost,
	}
	if m.Name() != "shapley-airport" || len(m.Agents()) != 4 {
		t.Fatal("metadata wrong")
	}
	for trial := 0; trial < 20; trial++ {
		u := mech.RandomProfile(rng, 4, 5)
		o := m.Run(u)
		if err := errors.Join(mech.CheckNPT(o), mech.CheckVP(u, o), mech.CheckCostRecovery(o)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Exact budget balance for Shapley on submodular C.
		if math.Abs(o.TotalShares()-o.Cost) > 1e-7 {
			t.Fatalf("trial %d: shares %g != cost %g", trial, o.TotalShares(), o.Cost)
		}
	}
	// Group strategyproofness (sampled): Moulin–Shenker with
	// cross-monotonic ξ is GSP [37].
	truth := mech.Profile{0.5, 1.5, 2.5, 3.5}
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckGroupStrategyproof(m, truth, rng, 300, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckCS(m, truth, 1e6); err != nil {
		t.Error(err)
	}
}

// TestShapleyPanicsPastTwentyAgents pins the input guard: 20 agents are
// enumerated, 21 panic before the first oracle call.
func TestShapleyPanicsPastTwentyAgents(t *testing.T) {
	calls := 0
	sh := Shapley(func(R []int) float64 { calls++; return float64(len(R)) })
	if got := sh.Shares(agentsUpto(20)); len(got) != 20 || math.Abs(got[19]-1) > 1e-9 {
		t.Fatalf("20 agents: %d shares, share[19] = %g, want 20 shares of 1", len(got), got[19])
	}
	calls = 0
	defer func() {
		if recover() == nil {
			t.Fatal("Shares on 21 agents did not panic")
		}
		if calls != 0 {
			t.Fatalf("%d oracle calls before the panic, want 0", calls)
		}
	}()
	sh.Shares(agentsUpto(21))
}

// Property: Shapley equals the average marginal contribution over all
// permutations (direct definition) on small random games. The receiver
// sets include |R| = 0 and 1 and ids that are not their positions in R,
// so a method that confused the two would fail.
func TestShapleyMatchesPermutationDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sets := [][]int{nil, {4}, {3, 7, 11}, {12, 2, 9, 5}}
	for trial := 0; trial < 10; trial++ {
		sets = append(sets, agentsUpto(2+rng.Intn(4)))
	}
	for trial, R := range sets {
		// Random monotone cost: C(R) = max of random singleton values plus
		// a concave size term.
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = rng.Float64() * 5
		}
		cost := func(R []int) float64 {
			var m float64
			for _, i := range R {
				if vals[i] > m {
					m = vals[i]
				}
			}
			return m + math.Sqrt(float64(len(R)))
		}
		got := Shapley(cost).Shares(R)
		if len(got) != len(R) {
			t.Fatalf("trial %d: %d shares for R=%v", trial, len(got), R)
		}
		// Permutation average.
		want := make(map[int]float64, len(R))
		perm := make([]int, 0, len(R))
		nperm := 0
		var rec func(used uint)
		rec = func(used uint) {
			if len(perm) == len(R) {
				nperm++
				var pre []int
				for _, i := range perm {
					with := cost(append(pre, i))
					without := cost(pre)
					want[i] += with - without
					pre = append(pre, i)
				}
				return
			}
			for j, i := range R {
				if used&(1<<uint(j)) == 0 {
					perm = append(perm, i)
					rec(used | 1<<uint(j))
					perm = perm[:len(perm)-1]
				}
			}
		}
		rec(0)
		for _, i := range R {
			if w := want[i] / float64(nperm); math.Abs(got[i]-w) > 1e-7 {
				t.Fatalf("trial %d R=%v: share[%d] = %g want %g", trial, R, i, got[i], w)
			}
		}
	}
}
