// Package sharing implements cost-sharing methods and the Moulin–Shenker
// mechanism template M(ξ) (§1.1 of the paper): a cost-sharing method ξ
// distributes C(R) among the members of R; if ξ is cross-monotonic then
// M(ξ) — iteratively dropping agents whose reported utility is below
// their current share — is budget balanced, group strategyproof and meets
// NPT, VP and CS [37,38]. The package provides an exact Shapley-value
// method for arbitrary cost oracles (≤ ~20 agents), property checkers for
// cross-monotonicity and submodularity, and the M(ξ) driver.
package sharing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"wmcs/internal/engine"
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
// cost oracle, computed by subset enumeration over a flat table of
// memoized cost queries:
//
//	φ(R, i) = Σ_{Q ⊆ R\{i}} |Q|!(|R|−|Q|−1)!/|R|! · (C(Q∪{i}) − C(Q)).
//
// For non-decreasing submodular C it is cross-monotonic and budget
// balanced [38,47]. Practical for |R| ≤ ~18.
type Shapley struct {
	agents []int
	bit    map[int]uint
	cost   CostFunc
	cache  map[uint64]float64
	fact   []float64
}

// ShapleyAgentLimit is the largest universe the exact Shapley method
// accepts: subsets are encoded as bits of a uint64 mask, so a 64th agent
// would silently alias the sign bit and corrupt the memo table.
const ShapleyAgentLimit = 63

// AgentLimitError reports a universe too large for an exact method's
// subset-mask representation. Callers that can degrade gracefully — the
// approximate tier, which has no mask and no limit — should match it
// with errors.As and route the request to NewSampledShapley instead.
type AgentLimitError struct {
	N     int // agents requested
	Limit int // hard cap of the representation
}

// Error implements error.
func (e *AgentLimitError) Error() string {
	return fmt.Sprintf("sharing: exact Shapley limited to %d agents, got %d (use the sampled tier)", e.Limit, e.N)
}

// NewShapleyChecked is NewShapley returning *AgentLimitError instead of
// panicking when the universe exceeds ShapleyAgentLimit. Historically the
// constructor accepted any size and the uint64 subset masks silently
// wrapped past 64 agents; the cap is now typed and enforced.
func NewShapleyChecked(agents []int, cost CostFunc) (*Shapley, error) {
	if len(agents) > ShapleyAgentLimit {
		return nil, &AgentLimitError{N: len(agents), Limit: ShapleyAgentLimit}
	}
	return NewShapley(agents, cost), nil
}

// NewShapley builds the method over a fixed agent universe (≤ 63 agents);
// it panics past the cap — use NewShapleyChecked to handle that as a
// typed error.
func NewShapley(agents []int, cost CostFunc) *Shapley {
	if len(agents) > ShapleyAgentLimit {
		panic((&AgentLimitError{N: len(agents), Limit: ShapleyAgentLimit}).Error())
	}
	s := &Shapley{
		agents: append([]int(nil), agents...),
		bit:    make(map[int]uint, len(agents)),
		cost:   cost,
		cache:  map[uint64]float64{},
		fact:   make([]float64, len(agents)+2),
	}
	sort.Ints(s.agents)
	for idx, a := range s.agents {
		s.bit[a] = uint(idx)
	}
	s.fact[0] = 1
	for i := 1; i < len(s.fact); i++ {
		s.fact[i] = s.fact[i-1] * float64(i)
	}
	return s
}

// shapleyBlockBits bounds the number of enumeration blocks the exact
// method partitions 2^k subsets into: 2^min(k,shapleyBlockBits)
// contiguous blocks. 64 blocks keeps the fixed merge cheap while leaving
// enough cells to feed any realistic pool width; the count is a function
// of k alone, never of the pool, which is what makes the reduction
// width-stable.
const shapleyBlockBits = 6

// shapleyBlocks returns the fixed (blockCount, blockSize) partition of
// the 2^k local-mask space. blockSize·blockCount == 2^k exactly (both
// are powers of two).
func shapleyBlocks(k int) (count, size uint64) {
	bb := shapleyBlockBits
	if k < bb {
		bb = k
	}
	count = 1 << uint(bb)
	size = (uint64(1) << uint(k)) / count
	return count, size
}

// Shares implements Method: SharesParallel at width 1.
func (s *Shapley) Shares(R []int) map[int]float64 { return s.SharesParallel(R, nil) }

// SharesParallel computes exact Shapley shares of R with the subset
// enumeration partitioned into the fixed blocks of shapleyBlocks and
// evaluated by the pool's workers. Phase 1 fills a flat cost table
// (one entry per local subset mask, each computed exactly once, warm
// ones read from the cross-call memo); phase 2 accumulates one partial
// share vector per block and folds them in block order. A nil or
// width-1 pool runs the identical blocked reduction serially, so the
// result is byte-identical at every width.
//
// The cost oracle must be safe for concurrent calls when the pool is
// wider than 1 (the oracles in this repo are pure functions). The
// method panics for |R| > 20 (2^|R| enumeration).
func (s *Shapley) SharesParallel(R []int, pool *engine.Pool) map[int]float64 {
	k := len(R)
	if k == 0 {
		return map[int]float64{}
	}
	if k > 20 {
		panic(fmt.Sprintf("sharing: Shapley.Shares limited to 20 agents, got %d", k))
	}
	local := make([]uint64, k) // local[i] = universe mask bit of R[i]
	for i, a := range R {
		b, ok := s.bit[a]
		if !ok {
			panic(fmt.Sprintf("sharing: agent %d not in universe", a))
		}
		local[i] = 1 << b
	}
	nBlocks, blockSize := shapleyBlocks(k)

	// Phase 1: the subset-cost table, tab[lm] = C(Q(lm)) for every local
	// mask lm. Each entry is written by exactly one block task, and its
	// value depends only on the (deterministic) oracle — never on
	// scheduling. Warm entries come from the cross-call memo, which is
	// read-only for the duration of the parallel section.
	tab := make([]float64, uint64(1)<<uint(k))
	cold := len(s.cache) == 0 // no memo to consult — skip the per-mask probes
	engine.Map(pool, int(nBlocks), func(b int) struct{} {
		members := make([]int, 0, k)
		lo, hi := uint64(b)*blockSize, (uint64(b)+1)*blockSize
		for lm := lo; lm < hi; lm++ {
			if lm == 0 {
				continue // C(∅) = 0, tab already zero
			}
			var gm uint64
			for t := lm; t != 0; t &= t - 1 { // walk set bits only
				gm |= local[bits.TrailingZeros64(t)]
			}
			if !cold {
				if c, ok := s.cache[gm]; ok {
					tab[lm] = c
					continue
				}
			}
			members = members[:0]
			for t := gm; t != 0; t &= t - 1 {
				members = append(members, s.agents[bits.TrailingZeros64(t)])
			}
			tab[lm] = s.cost(members)
		}
		return struct{}{}
	})
	// Publish the misses back into the cross-call memo so later rounds
	// (Moulin–Shenker shrinks R between calls) reuse them. Serial, in
	// ascending mask order: deterministic content either way (the oracle
	// is a function), but keeping one writer keeps the map honest. On a
	// cold memo the map is pre-sized (lm↔gm is a bijection, so every
	// entry is fresh) and inserted without probes; rehash-free growth is
	// a measurable share of the whole call at k = 18.
	if cold {
		s.cache = make(map[uint64]float64, uint64(1)<<uint(k))
	}
	for lm := uint64(1); lm < uint64(1)<<uint(k); lm++ {
		var gm uint64
		for t := lm; t != 0; t &= t - 1 {
			gm |= local[bits.TrailingZeros64(t)]
		}
		if cold {
			s.cache[gm] = tab[lm]
		} else if _, ok := s.cache[gm]; !ok {
			s.cache[gm] = tab[lm]
		}
	}

	// Phase 2: per-block partial share vectors over the flat table.
	kf := s.fact[k]
	fullLM := (uint64(1) << uint(k)) - 1
	parts := engine.Map(pool, int(nBlocks), func(b int) []float64 {
		part := make([]float64, k)
		lo, hi := uint64(b)*blockSize, (uint64(b)+1)*blockSize
		for lm := lo; lm < hi; lm++ {
			qSize := bits.OnesCount64(lm)
			if qSize == k {
				continue
			}
			w := s.fact[qSize] * s.fact[k-qSize-1] / kf
			cq := tab[lm]
			for t := fullLM &^ lm; t != 0; t &= t - 1 { // i ∉ Q, ascending
				i := bits.TrailingZeros64(t)
				part[i] += w * (tab[lm|1<<uint(i)] - cq)
			}
		}
		return part
	})
	// Fixed-order merge: fold the partials in block order, then bind to
	// agent ids. The fold order is part of the determinism contract.
	sums := make([]float64, k)
	for _, part := range parts {
		for i := 0; i < k; i++ {
			sums[i] += part[i]
		}
	}
	shares := make(map[int]float64, k)
	for i, a := range R {
		shares[a] = sums[i]
	}
	return shares
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
	res := MoulinShenker(m.AgentSet, s, u)
	// The final round's certificate: SharesCert on the surviving set
	// replays the identical permutation stream against a warm memo, so
	// this costs no fresh oracle calls.
	_, cert := s.SharesCert(res.Receivers)
	return mech.Outcome{
		Receivers: res.Receivers,
		Shares:    res.Shares,
		Cost:      m.Cost(res.Receivers),
	}, mech.ApproxCert(cert), nil
}
