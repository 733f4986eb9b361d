// Package mech defines the cost-sharing mechanism abstraction of the
// paper and the axiom checkers used by the simulated evaluation: no
// positive transfers (NPT), voluntary participation (VP), consumer
// sovereignty (CS), cost recovery, β-approximate budget balance (β-BB),
// strategyproofness and group strategyproofness.
//
// A mechanism maps a reported utility profile to an outcome: the receiver
// set R(u), the cost C(R(u)) of the solution built, and a cost share per
// receiver. Axioms are checked either exactly (NPT, VP, cost recovery,
// β-BB) or by adversarial deviation sampling (SP, GSP, CS), which is the
// standard empirical methodology for mechanism properties.
package mech

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Profile is a reported utility profile, indexed by agent id. Entries for
// non-agents (e.g. the source station) are ignored by mechanisms.
type Profile []float64

// Clone returns an independent copy of the profile.
func (u Profile) Clone() Profile {
	v := make(Profile, len(u))
	copy(v, u)
	return v
}

// Outcome is the result of running a mechanism on a profile.
type Outcome struct {
	Receivers []int           // selected receiver set R(u), sorted
	Shares    map[int]float64 // cost share per receiver; absent ⇒ 0
	Cost      float64         // cost C(R(u)) of the solution built
}

// IsReceiver reports whether agent i is served.
func (o Outcome) IsReceiver(i int) bool {
	idx := sort.SearchInts(o.Receivers, i)
	return idx < len(o.Receivers) && o.Receivers[idx] == i
}

// Share returns agent i's cost share (0 for non-receivers).
func (o Outcome) Share(i int) float64 { return o.Shares[i] }

// TotalShares returns Σ_i shares, summed in agent order so the float
// result is identical across runs (map iteration order would otherwise
// perturb the low bits and break reproducible table output).
func (o Outcome) TotalShares() float64 {
	ids := make([]int, 0, len(o.Shares))
	for i := range o.Shares {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	var s float64
	for _, i := range ids {
		s += o.Shares[i]
	}
	return s
}

// Welfare returns agent i's individual welfare w_i = u_i − c_i if served,
// 0 otherwise.
func (o Outcome) Welfare(u Profile, i int) float64 {
	if !o.IsReceiver(i) {
		return 0
	}
	return u[i] - o.Shares[i]
}

// NetWorth returns the overall welfare NW = Σ_{i∈R} u_i − C(R).
func (o Outcome) NetWorth(u Profile) float64 {
	var s float64
	for _, r := range o.Receivers {
		s += u[r]
	}
	return s - o.Cost
}

// Mechanism is a cost-sharing mechanism over a fixed agent set.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Agents returns the agent ids the mechanism serves, sorted.
	Agents() []int
	// Run executes the mechanism on a reported profile.
	Run(u Profile) Outcome
}

// Eps is the default tolerance for axiom checks.
const Eps = 1e-7

// CheckNPT verifies no positive transfers: every share is nonnegative.
// (It iterates the Shares map directly: the pass/fail verdict is
// order-independent; only which violation is named first can vary, and
// no deterministic output depends on the message.)
func CheckNPT(o Outcome) error {
	for i, c := range o.Shares {
		if c < -Eps {
			return fmt.Errorf("NPT violated: agent %d share %g < 0", i, c)
		}
	}
	return nil
}

// CheckVP verifies voluntary participation: receivers never pay more than
// their reported utility, and non-receivers pay nothing. Like CheckNPT,
// its verdict is independent of the Shares map iteration order.
func CheckVP(u Profile, o Outcome) error {
	for i, c := range o.Shares {
		if !o.IsReceiver(i) && c > Eps {
			return fmt.Errorf("VP violated: non-receiver %d charged %g", i, c)
		}
		if o.IsReceiver(i) && c > u[i]+Eps {
			return fmt.Errorf("VP violated: agent %d charged %g > utility %g", i, c, u[i])
		}
	}
	return nil
}

// CheckCostRecovery verifies Σ shares ≥ cost.
func CheckCostRecovery(o Outcome) error {
	if tot := o.TotalShares(); tot < o.Cost-Eps {
		return fmt.Errorf("cost recovery violated: shares %g < cost %g", tot, o.Cost)
	}
	return nil
}

// CheckBetaBB verifies β-approximate budget balance against the optimal
// cost: cost recovery plus Σ shares ≤ β·opt.
func CheckBetaBB(o Outcome, opt, beta float64) error {
	if err := CheckCostRecovery(o); err != nil {
		return err
	}
	if tot := o.TotalShares(); tot > beta*opt+Eps {
		return fmt.Errorf("%g-BB violated: shares %g > %g·opt (opt=%g)", beta, tot, beta*opt, opt)
	}
	return nil
}

// CheckCS verifies consumer sovereignty empirically: for each agent, with
// the other agents reporting u, reporting the huge utility `high` gets the
// agent served.
func CheckCS(m Mechanism, u Profile, high float64) error {
	for _, i := range m.Agents() {
		v := u.Clone()
		v[i] = high
		if o := m.Run(v); !o.IsReceiver(i) {
			return fmt.Errorf("CS violated: agent %d not served despite bid %g", i, high)
		}
	}
	return nil
}

// DefaultDeviationFactors are the multiplicative misreports used by the
// strategyproofness checkers: shading to zero, under-reporting,
// over-reporting and a large exaggeration.
var DefaultDeviationFactors = []float64{0, 0.25, 0.5, 0.9, 0.99, 1.01, 1.5, 3, 10}

// CheckStrategyproof verifies, for each agent and each deviation factor,
// that truthful reporting yields at least the welfare of the misreport
// (with the true utility used to evaluate welfare in both cases).
func CheckStrategyproof(m Mechanism, truth Profile, factors []float64) error {
	if factors == nil {
		factors = DefaultDeviationFactors
	}
	honest := m.Run(truth)
	for _, i := range m.Agents() {
		truthful := honest.Welfare(truth, i)
		for _, f := range factors {
			v := truth.Clone()
			v[i] = truth[i] * f
			if v[i] == truth[i] {
				continue
			}
			dev := m.Run(v)
			if got := dev.Welfare(truth, i); got > truthful+Eps {
				return fmt.Errorf("SP violated: agent %d gains %g > %g by reporting %g instead of %g",
					i, got, truthful, v[i], truth[i])
			}
		}
	}
	return nil
}

// CheckGroupStrategyproof samples random coalitions and joint deviations
// and verifies that no coalition can make a member strictly better off
// without making some member worse off. It returns nil if no violation is
// found among the sampled deviations (a one-sided check, as in the paper's
// own counterexample methodology).
func CheckGroupStrategyproof(m Mechanism, truth Profile, rng *rand.Rand, coalitions int, factors []float64) error {
	if factors == nil {
		factors = DefaultDeviationFactors
	}
	agents := m.Agents()
	if len(agents) < 2 {
		return nil
	}
	honest := m.Run(truth)
	base := make(map[int]float64, len(agents))
	for _, i := range agents {
		base[i] = honest.Welfare(truth, i)
	}
	for trial := 0; trial < coalitions; trial++ {
		size := 2 + rng.Intn(len(agents)-1)
		perm := rng.Perm(len(agents))[:size]
		v := truth.Clone()
		coalition := make([]int, 0, size)
		for _, idx := range perm {
			i := agents[idx]
			coalition = append(coalition, i)
			v[i] = truth[i] * factors[rng.Intn(len(factors))]
		}
		dev := m.Run(v)
		anyBetter, anyWorse := false, false
		for _, i := range coalition {
			w := dev.Welfare(truth, i)
			if w > base[i]+Eps {
				anyBetter = true
			}
			if w < base[i]-Eps {
				anyWorse = true
			}
		}
		if anyBetter && !anyWorse {
			sort.Ints(coalition)
			return fmt.Errorf("GSP violated by coalition %v (trial %d)", coalition, trial)
		}
	}
	return nil
}

// UniformProfile returns a profile with every agent at utility val.
func UniformProfile(n int, val float64) Profile {
	u := make(Profile, n)
	for i := range u {
		u[i] = val
	}
	return u
}

// RandomProfile returns utilities drawn uniformly from [0, max) for every
// index (callers overwrite or ignore non-agent slots).
func RandomProfile(rng *rand.Rand, n int, max float64) Profile {
	u := make(Profile, n)
	for i := range u {
		u[i] = rng.Float64() * max
	}
	return u
}

// BruteForceNetWorth maximizes Σ_{i∈R} u_i − C(R) over all subsets of
// agents by enumeration (≤ 20 agents), returning the best net worth. It
// is the efficiency reference for the MC mechanism experiments.
func BruteForceNetWorth(agents []int, u Profile, C func(R []int) float64) float64 {
	if len(agents) > 20 {
		panic("mech: BruteForceNetWorth limited to 20 agents")
	}
	best := math.Inf(-1)
	k := len(agents)
	R := make([]int, 0, k)
	for mask := 0; mask < 1<<k; mask++ {
		R = R[:0]
		var util float64
		for b := 0; b < k; b++ {
			if mask&(1<<b) != 0 {
				R = append(R, agents[b])
				util += u[agents[b]]
			}
		}
		if nw := util - C(R); nw > best {
			best = nw
		}
	}
	return best
}
