// Package jv implements the Jain–Vazirani-style family of cross-monotonic
// 2-budget-balanced cost-sharing methods for Steiner connectivity [29],
// realized as uniform/weighted moat growth on the shortest-path metric
// over the receivers and the source (the primal-dual view of Edmonds'
// branching LP). Combined with the Steiner power heuristic and Lemma 3.5,
// it yields the 2(3^d − 1)-BB group-strategyproof wireless mechanisms of
// Theorem 3.6 (12-BB for d = 2, Theorem 3.7, via Ambühl's bound).
//
// Growth process: every terminal (the source included) grows a moat at
// unit rate in the shortest-path metric, so two components merge exactly
// when the Kruskal threshold reaches their closure distance; an agent
// pays while its component does not yet contain the source, and each
// paying component collects at rate 2, split among its members
// proportionally to the growth weights f_i (the paper's parameterizing
// mappings). The totals telescope to the metric-closure MST weight:
//
//	Σ_i ξ(R, i) = 2 Σ_m t_m = MST(closure of R ∪ {s}),
//
// which is at least the realized tree's power cost (cost recovery) and at
// most 2× the optimal Steiner cost (2-approximate competitiveness).
// Cross-monotonicity holds because adding agents only merges components
// earlier and only enlarges the component an agent shares its rate with.
//
// An earlier variant that froze moats when they reached the source was
// measurably *not* cross-monotonic (a larger agent set can freeze an
// intermediate moat smaller and delay someone else's root meeting); the
// all-grow process repairs this, matching the population-monotonic MST
// allocations of Kent–Skorin-Kapov [30] that Jain–Vazirani build on.
package jv

import (
	"math"

	"wmcs/internal/graph"
	"wmcs/internal/mech"
	"wmcs/internal/mst"
	"wmcs/internal/paths"
	"wmcs/internal/sharing"
	"wmcs/internal/steiner"
	"wmcs/internal/wireless"
)

// Weights maps an agent to its growth weight f_i > 0; nil means uniform.
type Weights func(agent int) float64

// MoatResult is the outcome of one moat-growing run.
type MoatResult struct {
	// Shares are the cost shares ξ(R, i) = 2 × accumulated dual.
	Shares map[int]float64
	// Dual is Σ_S y_S, the total moat growth (a Steiner lower bound).
	Dual float64
	// Tree is the realized multicast tree in the host network.
	Tree wireless.Tree
	// Assignment implements Tree via the Steiner power heuristic.
	Assignment wireless.Assignment
}

// Moats runs the growth process for receivers R on the network's
// shortest-path metric and realizes the merge tree as a power assignment.
func Moats(nw *wireless.Network, R []int, w Weights) MoatResult {
	if w == nil {
		w = func(int) float64 { return 1 }
	}
	src := nw.Source()
	terms := append([]int{src}, R...)
	// Shortest-path distances and trees from every terminal over the
	// complete cost graph.
	k := len(terms)
	trees := make([]*paths.Tree, k)
	for i, t := range terms {
		trees[i] = paths.DijkstraMatrix(nw.CostMatrix(), t)
	}
	dist := func(i, j int) float64 { return trees[i].Dist[terms[j]] }

	comp := graph.NewUnionFind(k)
	radius := make([]float64, k) // moat radius per terminal; all grow at rate 1
	shares := make(map[int]float64, len(R))
	paying := func(c int) bool { return comp.Find(c) != comp.Find(0) }
	type merge struct{ a, b int }
	var merges []merge
	var dual float64
	for comp.Sets() > 1 {
		// Next meeting time over terminal pairs in different components;
		// every moat grows, so the combined closing rate is always 2.
		best := math.Inf(1)
		var ba, bb int
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if comp.Same(i, j) {
					continue
				}
				dt := (dist(i, j) - radius[i] - radius[j]) / 2
				if dt < best {
					best, ba, bb = dt, i, j
				}
			}
		}
		if math.IsInf(best, 1) {
			break // disconnected (cannot happen on complete graphs)
		}
		if best < 0 {
			best = 0 // simultaneous meetings
		}
		// Advance time: every moat grows; only components without the
		// source pay, 2·dt per component, split by the weights f_i.
		groups := map[int][]int{}
		for i := 0; i < k; i++ {
			radius[i] += best
			if paying(i) {
				groups[comp.Find(i)] = append(groups[comp.Find(i)], i)
			}
		}
		// Map iteration order is safe here: each group touches a disjoint
		// agent set exactly once and contributes the same `best` to dual,
		// so no float result depends on the order.
		//lint:detorder disjoint agent sets per group; dual gains the identical addend each visit, so no float depends on order
		for _, members := range groups {
			var wsum float64
			for _, i := range members {
				wsum += w(terms[i])
			}
			dual += best
			for _, i := range members {
				shares[terms[i]] += 2 * best * w(terms[i]) / wsum
			}
		}
		merges = append(merges, merge{a: ba, b: bb})
		comp.Union(ba, bb)
	}
	// Realize the merge tree: union of shortest paths for each merge,
	// re-spanned from the source and pruned to the terminals.
	sub := graph.New(nw.N())
	seen := map[[2]int]bool{}
	for _, mg := range merges {
		path := trees[mg.a].PathTo(terms[mg.b])
		for i := 0; i+1 < len(path); i++ {
			a, b := path[i], path[i+1]
			if a > b {
				a, b = b, a
			}
			if !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				sub.AddEdge(a, b, nw.C(a, b))
			}
		}
	}
	edges := steiner.Prune(nw.N(), mst.Prim(sub, src), terms)
	tree := wireless.TreeFromUndirectedEdges(nw.N(), edges, src)
	tree = wireless.PruneTree(tree, R)
	return MoatResult{
		Shares:     shares,
		Dual:       dual,
		Tree:       tree,
		Assignment: nw.AssignmentForTree(tree),
	}
}

// Method returns the moat cost-sharing method ξ(R, ·) as a sharing.Method
// (used both by the mechanism and by the cross-monotonicity experiments).
func Method(nw *wireless.Network, w Weights) sharing.Method {
	return sharing.MethodFunc(func(R []int) map[int]float64 {
		if len(R) == 0 {
			return map[int]float64{}
		}
		return Moats(nw, R, w).Shares
	})
}

// Mechanism wraps Moulin–Shenker over the moat method: the Theorem 3.6
// group-strategyproof 2(3^d − 1)-BB wireless multicast mechanism.
type Mechanism struct {
	Net     *wireless.Network
	weights Weights
}

// NewMechanism builds the mechanism; nil weights mean the uniform member
// of the JV family.
func NewMechanism(nw *wireless.Network, w Weights) *Mechanism {
	return &Mechanism{Net: nw, weights: w}
}

// Name implements mech.Mechanism with the package-internal default;
// the descriptor registry (internal/mechreg) assigns the public jv-moat
// name to registry-built instances.
func (m *Mechanism) Name() string { return "moat" }

// Agents implements mech.Mechanism.
func (m *Mechanism) Agents() []int { return m.Net.AllReceivers() }

// Result extends the outcome with the power assignment actually built.
type Result struct {
	Outcome    mech.Outcome
	Assignment wireless.Assignment
}

// Run implements mech.Mechanism.
func (m *Mechanism) Run(u mech.Profile) mech.Outcome { return m.RunDetailed(u).Outcome }

// RunDetailed runs Moulin–Shenker over the moat shares and realizes the
// final receiver set's tree.
func (m *Mechanism) RunDetailed(u mech.Profile) Result {
	res := sharing.MoulinShenker(m.Agents(), Method(m.Net, m.weights), u)
	if len(res.Receivers) == 0 {
		return Result{
			Outcome:    mech.Outcome{Shares: map[int]float64{}},
			Assignment: make(wireless.Assignment, m.Net.N()),
		}
	}
	final := Moats(m.Net, res.Receivers, m.weights)
	return Result{
		Outcome: mech.Outcome{
			Receivers: res.Receivers,
			Shares:    res.Shares,
			Cost:      final.Assignment.Total(),
		},
		Assignment: final.Assignment,
	}
}

// BetaBound returns the Theorem 3.6 guarantee 2(3^d − 1) for dimension d
// (improved to 12 at d = 2 by Theorem 3.7 via Ambühl's MST bound).
func BetaBound(d int) float64 {
	if d == 2 {
		return 12
	}
	return 2 * (math.Pow(3, float64(d)) - 1)
}
