package sharing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/mech"
)

func TestIncrementalAirport(t *testing.T) {
	c := []float64{1, 2, 3}
	inc := NewIncremental([]int{0, 1, 2}, airportCost(c))
	got := inc.Shares([]int{0, 1, 2})
	// Order 0,1,2: marginals 1, 1, 1.
	for i, want := range []float64{1, 1, 1} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("share[%d] = %g want %g", i, got[i], want)
		}
	}
	// Reversed order: agent 2 pays everything.
	inc = NewIncremental([]int{2, 1, 0}, airportCost(c))
	got = inc.Shares([]int{0, 1, 2})
	if got[2] != 3 || got[1] != 0 || got[0] != 0 {
		t.Errorf("reversed shares = %v", got)
	}
}

func TestIncrementalBudgetBalanceAndCrossMono(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := make([]float64, 7)
	for i := range c {
		c[i] = rng.Float64() * 10
	}
	agents := []int{0, 1, 2, 3, 4, 5, 6}
	inc := NewIncremental(agents, airportCost(c))
	if err := CheckBudgetBalanced(inc, airportCost(c), agents, rng, 150, 1e-9); err != nil {
		t.Error(err)
	}
	// Submodular cost ⇒ cross-monotonic marginals.
	if err := CheckCrossMonotone(inc, agents, rng, 200, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestIncrementalMechanismGSP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := []float64{1, 2, 3, 4}
	agents := []int{0, 1, 2, 3}
	cost := airportCost(c)
	m := &MechanismFromMethod{
		MechName: "incremental-airport",
		AgentSet: agents,
		Xi:       NewIncremental(agents, cost),
		Cost:     cost,
	}
	truth := mech.Profile{0.7, 1.9, 2.2, 3.8}
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
	if err := mech.CheckGroupStrategyproof(m, truth, rng, 300, nil); err != nil {
		t.Error(err)
	}
	for trial := 0; trial < 15; trial++ {
		u := mech.RandomProfile(rng, 4, 5)
		o := m.Run(u)
		if err := errors.Join(mech.CheckNPT(o), mech.CheckVP(u, o), mech.CheckCostRecovery(o)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(o.TotalShares()-o.Cost) > 1e-9 {
			t.Fatalf("trial %d: not budget balanced", trial)
		}
	}
}

// Moulin–Shenker [38]: the Shapley value minimizes worst-case efficiency
// loss among cross-monotonic BB methods. On random airport games the
// Shapley mechanism's realized net worth must on average dominate the
// incremental mechanism's under adversarial priority orders.
func TestShapleyBeatsIncrementalOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6
	agents := []int{0, 1, 2, 3, 4, 5}
	var shapSum, incSum float64
	for trial := 0; trial < 40; trial++ {
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64() * 10
		}
		cost := airportCost(c)
		shap := &MechanismFromMethod{MechName: "s", AgentSet: agents, Xi: Shapley(cost), Cost: cost}
		// Adversarial order: charge the closest agents the whole marginal
		// first (reverse distance order).
		order := append([]int(nil), agents...)
		for i := range order {
			for j := i + 1; j < len(order); j++ {
				if c[order[j]] > c[order[i]] {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		inc := &MechanismFromMethod{MechName: "i", AgentSet: agents, Xi: NewIncremental(order, cost), Cost: cost}
		u := mech.RandomProfile(rng, n, 8)
		shapSum += shap.Run(u).NetWorth(u)
		incSum += inc.Run(u).NetWorth(u)
	}
	if shapSum < incSum-1e-9 {
		t.Errorf("Shapley mean net worth %g below incremental %g — contradicts [38]'s worst-case ordering",
			shapSum, incSum)
	}
}
