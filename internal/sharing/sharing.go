// Package sharing implements cost-sharing methods and the Moulin–Shenker
// mechanism template M(ξ) (§1.1 of the paper): a cost-sharing method ξ
// distributes C(R) among the members of R; if ξ is cross-monotonic then
// M(ξ) — iteratively dropping agents whose reported utility is below
// their current share — is budget balanced, group strategyproof and meets
// NPT, VP and CS [37,38]. The package provides an exact Shapley-value
// method for arbitrary cost oracles (≤ 20 agents), property checkers for
// cross-monotonicity and submodularity, and the M(ξ) driver.
package sharing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"wmcs/internal/mech"
)

// CostFunc is a cost oracle over agent subsets: C(R) with C(∅) = 0.
// Implementations must be symmetric in the order of R.
type CostFunc func(R []int) float64

// Method is a cost-sharing method ξ: Shares(R) distributes a cost among
// the members of R (agents outside R get no entry).
type Method interface {
	// Shares returns ξ(R, ·) for every member of R.
	Shares(R []int) map[int]float64
}

// MethodFunc adapts a function to the Method interface.
type MethodFunc func(R []int) map[int]float64

// Shares implements Method.
func (f MethodFunc) Shares(R []int) map[int]float64 { return f(R) }

// Shapley is the exact Shapley-value cost-sharing method for an arbitrary
// cost oracle, evaluated serially from the subset formula
//
//	φ(R, i) = Σ_{Q ⊆ R\{i}} |Q|!(|R|−|Q|−1)!/|R|! · (C(Q∪{i}) − C(Q)).
//
// Each call fills a flat table of the 2^|R| subset costs, indexed by
// local mask (bit j stands for R[j]), and makes one weighted pass over
// it. For non-decreasing submodular C it is cross-monotonic and budget
// balanced [38,47]. It panics for |R| > 20 (2^|R| enumeration).
func Shapley(cost CostFunc) Method {
	return MethodFunc(func(R []int) map[int]float64 {
		k := len(R)
		if k > 20 {
			panic(fmt.Sprintf("sharing: Shapley limited to 20 agents, got %d", k))
		}
		tab := make([]float64, 1<<k) // tab[m] = C({R[j] : bit j of m})
		members := make([]int, 0, k)
		for m := 1; m < len(tab); m++ {
			members = members[:0]
			for t := m; t != 0; t &= t - 1 {
				members = append(members, R[bits.TrailingZeros(uint(t))])
			}
			tab[m] = cost(members)
		}
		fact := make([]float64, k+1)
		fact[0] = 1
		for i := 1; i <= k; i++ {
			fact[i] = fact[i-1] * float64(i)
		}
		sums := make([]float64, k)
		full := len(tab) - 1
		for m, cq := range tab[:full] {
			q := bits.OnesCount(uint(m))
			w := fact[q] * fact[k-q-1] / fact[k]
			for t := full &^ m; t != 0; t &= t - 1 { // i ∉ Q
				i := bits.TrailingZeros(uint(t))
				sums[i] += w * (tab[m|1<<i] - cq)
			}
		}
		shares := make(map[int]float64, k)
		for i, a := range R {
			shares[a] = sums[i]
		}
		return shares
	})
}

// MoulinShenkerResult is the outcome of the M(ξ) iteration.
type MoulinShenkerResult struct {
	Receivers []int
	Shares    map[int]float64
	Rounds    int
}

// MoulinShenker runs the mechanism template M(ξ): start from all agents;
// while some agent's share exceeds its reported utility, drop all such
// agents and recompute. For cross-monotonic ξ the surviving set is the
// unique largest set where everyone can pay [37].
func MoulinShenker(agents []int, xi Method, u mech.Profile) MoulinShenkerResult {
	R := append([]int(nil), agents...)
	sort.Ints(R)
	rounds := 0
	for {
		rounds++
		shares := xi.Shares(R)
		var keep []int
		for _, i := range R {
			if u[i] >= shares[i]-mech.Eps {
				keep = append(keep, i)
			}
		}
		if len(keep) == len(R) {
			return MoulinShenkerResult{Receivers: R, Shares: shares, Rounds: rounds}
		}
		R = keep
		if len(R) == 0 {
			return MoulinShenkerResult{Receivers: nil, Shares: map[int]float64{}, Rounds: rounds}
		}
	}
}

// CheckCrossMonotone samples subset pairs Q ⊆ R of the agent set and
// verifies ξ(Q, i) ≥ ξ(R, i) for all i ∈ Q. Returns the first violation.
func CheckCrossMonotone(xi Method, agents []int, rng *rand.Rand, samples int, eps float64) error {
	n := len(agents)
	if n == 0 {
		return nil
	}
	for t := 0; t < samples; t++ {
		var R, Q []int
		for _, a := range agents {
			switch rng.Intn(3) {
			case 0: // in both
				R = append(R, a)
				Q = append(Q, a)
			case 1: // only in R
				R = append(R, a)
			}
		}
		if len(Q) == 0 || len(Q) == len(R) {
			continue
		}
		sr := xi.Shares(R)
		sq := xi.Shares(Q)
		for _, i := range Q {
			if sq[i] < sr[i]-eps {
				return fmt.Errorf("cross-monotonicity violated: agent %d pays %g in Q=%v but %g in R=%v",
					i, sq[i], Q, sr[i], R)
			}
		}
	}
	return nil
}

// CheckBudgetBalanced samples subsets and verifies Σ_i ξ(R, i) = C(R)
// within eps.
func CheckBudgetBalanced(xi Method, cost CostFunc, agents []int, rng *rand.Rand, samples int, eps float64) error {
	for t := 0; t < samples; t++ {
		var R []int
		for _, a := range agents {
			if rng.Intn(2) == 0 {
				R = append(R, a)
			}
		}
		if len(R) == 0 {
			continue
		}
		// Sum in sorted agent order: map iteration would perturb the float
		// low bits and could flip the eps comparison between runs.
		shares := xi.Shares(R)
		ids := make([]int, 0, len(shares))
		for i := range shares {
			ids = append(ids, i)
		}
		sort.Ints(ids)
		var tot float64
		for _, i := range ids {
			tot += shares[i]
		}
		if want := cost(R); tot < want-eps || tot > want+eps {
			return fmt.Errorf("budget balance violated on R=%v: shares %g, cost %g", R, tot, want)
		}
	}
	return nil
}

// CheckSubmodular samples subset pairs and verifies monotonicity
// (Q ⊆ R ⇒ C(Q) ≤ C(R)) and submodularity
// (C(Q∪R) + C(Q∩R) ≤ C(Q) + C(R)).
func CheckSubmodular(cost CostFunc, agents []int, rng *rand.Rand, samples int, eps float64) error {
	for t := 0; t < samples; t++ {
		var q, r []int
		var union, inter []int
		for _, a := range agents {
			inQ, inR := rng.Intn(2) == 0, rng.Intn(2) == 0
			if inQ {
				q = append(q, a)
			}
			if inR {
				r = append(r, a)
			}
			if inQ || inR {
				union = append(union, a)
			}
			if inQ && inR {
				inter = append(inter, a)
			}
		}
		cq, cr := cost(q), cost(r)
		cu, ci := cost(union), cost(inter)
		if cu+ci > cq+cr+eps {
			return fmt.Errorf("submodularity violated: C(Q∪R)+C(Q∩R)=%g > C(Q)+C(R)=%g (Q=%v R=%v)",
				cu+ci, cq+cr, q, r)
		}
		if ci > cq+eps || ci > cr+eps || cq > cu+eps || cr > cu+eps {
			return fmt.Errorf("monotonicity violated (Q=%v R=%v)", q, r)
		}
	}
	return nil
}

// MechanismFromMethod wraps M(ξ) as a mech.Mechanism with the given cost
// oracle determining the reported outcome cost C(R(u)).
type MechanismFromMethod struct {
	MechName string
	AgentSet []int
	Xi       Method
	Cost     CostFunc
	// Prefixes, when set, is Cost's one-pass prefix pricer (it must
	// return Cost's bits): RunApprox prices each sampled permutation
	// with it. Nil prices every prefix with its own Cost call.
	Prefixes PrefixCost
}

// Name implements mech.Mechanism.
func (m *MechanismFromMethod) Name() string { return m.MechName }

// Agents implements mech.Mechanism.
func (m *MechanismFromMethod) Agents() []int { return m.AgentSet }

// Run implements mech.Mechanism.
func (m *MechanismFromMethod) Run(u mech.Profile) mech.Outcome {
	res := MoulinShenker(m.AgentSet, m.Xi, u)
	return mech.Outcome{
		Receivers: res.Receivers,
		Shares:    res.Shares,
		Cost:      m.Cost(res.Receivers),
	}
}

// MarginalCost is the marginal-cost (VCG) mechanism over an
// efficient-set oracle: it serves the largest efficient receiver set
// and charges each receiver its Clarke pivot. It offers no sampled
// tier.
type MarginalCost struct {
	MechName string
	AgentSet []int
	// Efficient returns the largest receiver set maximizing the net
	// worth NW(R) = Σ_{i∈R} u_i − C(R), and that net worth.
	Efficient func(u mech.Profile) ([]int, float64)
	Cost      CostFunc
}

// Name implements mech.Mechanism.
func (m *MarginalCost) Name() string { return m.MechName }

// Agents implements mech.Mechanism.
func (m *MarginalCost) Agents() []int { return m.AgentSet }

// Run implements mech.Mechanism: receiver i pays its Clarke pivot
// c_i = u_i − (NW(u) − NW(u_{−i})), where u_{−i} zeroes i's utility.
func (m *MarginalCost) Run(u mech.Profile) mech.Outcome {
	R, nw := m.Efficient(u)
	shares := make(map[int]float64, len(R))
	for _, i := range R {
		v := u.Clone()
		v[i] = 0
		_, nwWithout := m.Efficient(v)
		ci := u[i] - (nw - nwWithout)
		if ci < 0 && ci > -1e-9 {
			ci = 0 // numerical noise only; MC is NPT in theory
		}
		shares[i] = ci
	}
	return mech.Outcome{Receivers: R, Shares: shares, Cost: m.Cost(R)}
}

// RunApprox implements mech.ApproxRunner: the same M(ξ) iteration with ξ
// replaced by the sampled-permutation Shapley estimator over the same
// cost oracle, plus the Hoeffding certificate of the final round's
// shares. The exact method m.Xi plays no part here — the tiers never
// mix — and the certificate speaks only for the surviving receiver set:
// with probability ≥ 1−δ each reported share is within ε of the exact
// Shapley share of that set.
func (m *MechanismFromMethod) RunApprox(u mech.Profile, spec mech.ApproxSpec) (mech.Outcome, mech.ApproxCert, error) {
	if err := spec.Validate(); err != nil {
		return mech.Outcome{}, mech.ApproxCert{}, err
	}
	s, err := NewSampledShapley(m.AgentSet, m.Cost, spec.Samples, spec.Delta, spec.Seed)
	if err != nil {
		return mech.Outcome{}, mech.ApproxCert{}, err
	}
	s.prefixes = m.Prefixes
	res := MoulinShenker(m.AgentSet, s, u)
	// The final round's certificate is the one SharesCert(res.Receivers)
	// returns; it needs only the survivors' singleton costs.
	cert := s.cert(res.Receivers)
	return mech.Outcome{
		Receivers: res.Receivers,
		Shares:    res.Shares,
		Cost:      m.Cost(res.Receivers),
	}, mech.ApproxCert(cert), nil
}
