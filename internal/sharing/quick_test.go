package sharing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property (symmetry axiom): in a symmetric game, all agents receive
// identical Shapley shares.
func TestQuickShapleySymmetry(t *testing.T) {
	f := func(seed uint16, k8 uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 2 + int(k8)%5
		base := rng.Float64() * 5
		cost := func(R []int) float64 {
			if len(R) == 0 {
				return 0
			}
			return base + math.Sqrt(float64(len(R)))
		}
		agents := make([]int, k)
		for i := range agents {
			agents[i] = i
		}
		shares := Shapley(cost).Shares(agents)
		first := shares[0]
		for _, v := range shares {
			if math.Abs(v-first) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (dummy axiom): an agent whose presence never changes the cost
// pays zero under the Shapley value.
func TestQuickShapleyDummy(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 3 + rng.Intn(4)
		vals := make([]float64, k)
		for i := 1; i < k; i++ {
			vals[i] = rng.Float64() * 5
		}
		// Agent 0 is a dummy: cost ignores it entirely.
		cost := func(R []int) float64 {
			var m float64
			for _, i := range R {
				if vals[i] > m {
					m = vals[i]
				}
			}
			return m
		}
		agents := make([]int, k)
		for i := range agents {
			agents[i] = i
		}
		shares := Shapley(cost).Shares(agents)
		return math.Abs(shares[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Moulin–Shenker receivers can always afford their shares, and
// the iteration is idempotent (re-running on the survivors changes
// nothing) for cross-monotonic methods.
func TestQuickMoulinShenkerFixpoint(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 3 + rng.Intn(4)
		c := make([]float64, k)
		for i := range c {
			c[i] = rng.Float64() * 10
		}
		agents := make([]int, k)
		for i := range agents {
			agents[i] = i
		}
		cost := airportCost(c)
		xi := Shapley(cost)
		u := make([]float64, k)
		for i := range u {
			u[i] = rng.Float64() * 6
		}
		res := MoulinShenker(agents, xi, u)
		for _, i := range res.Receivers {
			if u[i] < res.Shares[i]-1e-7 {
				return false
			}
		}
		again := MoulinShenker(res.Receivers, xi, u)
		if len(again.Receivers) != len(res.Receivers) {
			return false
		}
		for idx, i := range res.Receivers {
			if again.Receivers[idx] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
