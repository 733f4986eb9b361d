// Package euclid1 implements the §3.1 mechanisms for Euclidean wireless
// networks in the two polynomial cases of Lemma 3.1:
//
//   - α = 1 (any dimension): the optimal multicast cost is
//     C*(R) = max_{x∈R} c(s, x) — exactly the classical airport game, so
//     the Shapley value has a closed sequential-increment form and the
//     largest efficient set is a distance prefix.
//
//   - d = 1 (any α ≥ 1): stations on a line. C*(R) depends only on the
//     extreme ranks of R ∪ {s}; every interval's optimal cost comes from
//     one table, wireless.LineLayout.IntervalCosts, and the Shapley
//     value is evaluated by counting subsets with given extremes in
//     O(k³) instead of 2^k.
//
// Both cases yield a 1-BB group-strategyproof Shapley mechanism (via
// Moulin–Shenker) and an efficient strategyproof MC mechanism, matching
// Theorem 3.2.
package euclid1

import (
	"sort"

	"wmcs/internal/mech"
	"wmcs/internal/sharing"
	"wmcs/internal/wireless"
)

// ---------------------------------------------------------------------------
// α = 1: the airport game.

// AirportGame is the α = 1 multicast cost-sharing game: every agent's
// "runway length" is its direct cost from the source.
type AirportGame struct {
	Net *wireless.Network
}

// NewAirportGame validates α = 1 and wraps the network.
func NewAirportGame(nw *wireless.Network) *AirportGame {
	if !nw.IsEuclidean() || nw.PowerModel().Alpha != 1 {
		panic("euclid1: AirportGame requires a Euclidean network with alpha = 1")
	}
	return &AirportGame{Net: nw}
}

// Cost returns C*(R) = max_{x∈R} c(s, x).
func (g *AirportGame) Cost(R []int) float64 {
	var m float64
	for _, r := range R {
		if c := g.Net.C(g.Net.Source(), r); c > m {
			m = c
		}
	}
	return m
}

// Prefixes implements sharing.PrefixCost for Cost: out[i] is the
// running maximum of c(s, r) over order[:i+1], the maximum Cost takes.
func (g *AirportGame) Prefixes(order []int, out []float64) {
	var m float64
	for i, r := range order {
		if c := g.Net.C(g.Net.Source(), r); c > m {
			m = c
		}
		out[i] = m
	}
}

// Shapley returns the airport-game Shapley shares in closed form: sort
// receivers by distance; the i-th cost increment is split equally among
// the receivers at least as far.
func (g *AirportGame) Shapley(R []int) map[int]float64 {
	k := len(R)
	shares := make(map[int]float64, k)
	if k == 0 {
		return shares
	}
	sorted := append([]int(nil), R...)
	s := g.Net.Source()
	sort.Slice(sorted, func(a, b int) bool {
		ca, cb := g.Net.C(s, sorted[a]), g.Net.C(s, sorted[b])
		if ca != cb {
			return ca < cb
		}
		return sorted[a] < sorted[b]
	})
	acc, prev := 0.0, 0.0
	for i, r := range sorted {
		c := g.Net.C(s, r)
		acc += (c - prev) / float64(k-i)
		prev = c
		shares[r] = acc
	}
	return shares
}

// ShapleyMechanism returns the 1-BB group-strategyproof mechanism for
// α = 1 (Theorem 3.2).
func (g *AirportGame) ShapleyMechanism() mech.Mechanism {
	return &sharing.MechanismFromMethod{
		MechName: "airport-shapley", // package-internal default; mechreg assigns the public name
		AgentSet: g.Net.AllReceivers(),
		Xi:       sharing.MethodFunc(func(R []int) map[int]float64 { return g.Shapley(R) }),
		Cost:     g.Cost,
		Prefixes: g.Prefixes,
	}
}

// MCMechanism returns the efficient strategyproof MC mechanism for α = 1:
// the largest efficient set is one of the ≤ n distance prefixes
// (Theorem 3.2's argument).
func (g *AirportGame) MCMechanism() mech.Mechanism {
	return &sharing.MarginalCost{
		MechName:  "airport-mc", // package-internal default; mechreg assigns the public name
		AgentSet:  g.Net.AllReceivers(),
		Efficient: g.bestPrefix,
		Cost:      g.Cost,
	}
}

// bestPrefix returns the largest efficient set and its net worth,
// enumerating distance prefixes.
func (g *AirportGame) bestPrefix(u mech.Profile) ([]int, float64) {
	s := g.Net.Source()
	agents := g.Net.AllReceivers()
	sort.Slice(agents, func(a, b int) bool {
		ca, cb := g.Net.C(s, agents[a]), g.Net.C(s, agents[b])
		if ca != cb {
			return ca < cb
		}
		return agents[a] < agents[b]
	})
	bestNW, bestLen := 0.0, 0
	acc := 0.0
	for i, r := range agents {
		acc += u[r]
		nw := acc - g.Net.C(s, r)
		// Prefix must extend through equal-distance ties for "largest".
		if i+1 < len(agents) && g.Net.C(s, agents[i+1]) == g.Net.C(s, r) {
			continue
		}
		if nw >= bestNW {
			bestNW, bestLen = nw, i+1
		}
	}
	R := append([]int(nil), agents[:bestLen]...)
	sort.Ints(R)
	return R, bestNW
}

// ---------------------------------------------------------------------------
// d = 1: the interval game.

// LineGame is the d = 1 multicast cost-sharing game. It holds the
// line's layout and the optimal cost of every covered interval
// (wireless.LineLayout.IntervalCosts), so C*(R) queries and the
// combinatorial Shapley value are cheap.
type LineGame struct {
	Net  *wireless.Network
	lay  wireless.LineLayout
	best []float64 // best[f*n+l] = min cost covering ranks [f..l] ∪ {K}
	fact []float64 // factorials
}

// NewLineGame validates d = 1 and precomputes the interval cost table.
func NewLineGame(nw *wireless.Network) *LineGame {
	if nw.Dim() != 1 {
		panic("euclid1: LineGame requires a 1-dimensional Euclidean network")
	}
	lay := wireless.NewLineLayout(nw)
	g := &LineGame{Net: nw, lay: lay, best: lay.IntervalCosts(), fact: make([]float64, nw.N()+2)}
	g.fact[0] = 1
	for i := 1; i < len(g.fact); i++ {
		g.fact[i] = g.fact[i-1] * float64(i)
	}
	return g
}

// CostExtremes returns C* of serving the rank interval [f..l] ∪ {source}.
func (g *LineGame) CostExtremes(f, l int) float64 {
	return g.best[min(f, g.lay.K)*g.Net.N()+max(l, g.lay.K)]
}

// Cost returns C*(R), which depends only on the extreme ranks of R ∪ {s}.
func (g *LineGame) Cost(R []int) float64 {
	return g.CostExtremes(g.lay.Span(R))
}

// Prefixes implements sharing.PrefixCost for Cost: it keeps the running
// extreme ranks of order[:i+1] ∪ {s}, starting from (K, K), and prices
// each prefix with CostExtremes, as Cost does after Span.
func (g *LineGame) Prefixes(order []int, out []float64) {
	f, l := g.lay.K, g.lay.K
	for i, r := range order {
		f, l = min(f, g.lay.Rank[r]), max(l, g.lay.Rank[r])
		out[i] = g.CostExtremes(f, l)
	}
}

// Shapley evaluates the exact Shapley value of the interval game by
// counting: subsets of R\{i} are grouped by their extreme ranks, so the
// exponential Eq. (4) collapses to O(k³) binomial-weighted terms.
func (g *LineGame) Shapley(R []int) map[int]float64 {
	k := len(R)
	shares := make(map[int]float64, k)
	if k == 0 {
		return shares
	}
	ranks := make([]int, k)
	for i, r := range R {
		ranks[i] = g.lay.Rank[r]
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] < ranks[idx[b]] })
	sortedRanks := make([]int, k)
	sortedIDs := make([]int, k)
	for p, i := range idx {
		sortedRanks[p] = ranks[i]
		sortedIDs[p] = R[i]
	}
	kf := g.fact[k]
	// weight(q) = q!(k−1−q)!/k!
	weight := func(q int) float64 { return g.fact[q] * g.fact[k-1-q] / kf }
	choose := func(m, r int) float64 {
		if r < 0 || r > m {
			return 0
		}
		return g.fact[m] / (g.fact[r] * g.fact[m-r])
	}
	for t, agent := range sortedIDs {
		ri := sortedRanks[t]
		var phi float64
		// Q = ∅ term.
		phi += weight(0) * g.CostExtremes(ri, ri)
		// Singletons and general subsets grouped by extreme positions
		// (a, b) over the other members (indices in sortedRanks ≠ t).
		for a := 0; a < k; a++ {
			if a == t {
				continue
			}
			ra := sortedRanks[a]
			// Singleton Q = {a}.
			cq := g.CostExtremes(ra, ra)
			cqi := g.CostExtremes(min(ra, ri), max(ra, ri))
			phi += weight(1) * (cqi - cq)
			for b := a + 1; b < k; b++ {
				if b == t {
					continue
				}
				rb := sortedRanks[b]
				// Members strictly between positions a and b, excluding t.
				inner := b - a - 1
				if a < t && t < b {
					inner--
				}
				cq = g.CostExtremes(ra, rb)
				cqi = g.CostExtremes(min(ra, ri), max(rb, ri))
				diff := cqi - cq
				if diff == 0 {
					continue
				}
				for q := 2; q <= inner+2; q++ {
					phi += weight(q) * choose(inner, q-2) * diff
				}
			}
		}
		shares[agent] = phi
	}
	return shares
}

// ShapleyMechanism returns the d = 1 Shapley mechanism of Theorem 3.2
// (Moulin–Shenker over the exact interval-game Shapley value).
func (g *LineGame) ShapleyMechanism() mech.Mechanism {
	return &sharing.MechanismFromMethod{
		MechName: "interval-shapley", // package-internal default; mechreg assigns the public name
		AgentSet: g.Net.AllReceivers(),
		Xi:       sharing.MethodFunc(func(R []int) map[int]float64 { return g.Shapley(R) }),
		Cost:     g.Cost,
		Prefixes: g.Prefixes,
	}
}

// MCMechanism returns the efficient strategyproof MC mechanism for d = 1:
// the largest efficient set is determined by its first and last station
// (Theorem 3.2), so ≤ n² candidates are enumerated.
func (g *LineGame) MCMechanism() mech.Mechanism {
	return &sharing.MarginalCost{
		MechName:  "interval-mc", // package-internal default; mechreg assigns the public name
		AgentSet:  g.Net.AllReceivers(),
		Efficient: g.bestInterval,
		Cost:      g.Cost,
	}
}

// bestInterval returns the largest efficient set and its net worth,
// enumerating the intervals of coordinate ranks.
func (g *LineGame) bestInterval(u mech.Profile) ([]int, float64) {
	n := g.Net.N()
	// utilByRank[r] = utility of the station at rank r (0 for the source).
	utilByRank := make([]float64, n)
	for r, v := range g.lay.Order {
		if v != g.Net.Source() {
			utilByRank[r] = u[v]
		}
	}
	pre := make([]float64, n+1)
	for r := 0; r < n; r++ {
		pre[r+1] = pre[r] + utilByRank[r]
	}
	bestNW := 0.0
	bestF, bestL := -1, -1
	bestWidth := -1
	for f := 0; f < n; f++ {
		for l := f; l < n; l++ {
			nw := pre[l+1] - pre[f] - g.CostExtremes(f, l)
			width := l - f
			if nw > bestNW+1e-12 || (nw > bestNW-1e-12 && width > bestWidth) {
				bestNW, bestF, bestL, bestWidth = nw, f, l, width
			}
		}
	}
	if bestF < 0 {
		return nil, 0
	}
	var R []int
	for r := bestF; r <= bestL; r++ {
		if v := g.lay.Order[r]; v != g.Net.Source() {
			R = append(R, v)
		}
	}
	sort.Ints(R)
	return R, bestNW
}
