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
	"fmt"
	"math"
	"slices"
	"sync"

	"wmcs/internal/graph"
	"wmcs/internal/mech"
	"wmcs/internal/mst"
	"wmcs/internal/paths"
	"wmcs/internal/sharing"
	"wmcs/internal/steiner"
	"wmcs/internal/wireless"
)

// Weights maps an agent to its growth weight, finite and f_i > 0; nil
// means uniform.
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
// It sweeps the shortest-path trees from its own terminals on every
// call; a Mechanism or a Method keeps one table of them for all its
// calls.
func Moats(nw *wireless.Network, R []int, w Weights) MoatResult {
	terms := terminals(nw, R)
	trees := make([]*paths.Tree, nw.N())
	for _, t := range terms {
		if trees[t] == nil {
			trees[t] = paths.DijkstraMatrix(nw.CostMatrix(), t)
		}
	}
	g := grow(trees, terms, w, true)
	tree, a := realize(nw, trees, terms, g.merges, R)
	return MoatResult{Shares: g.shares, Dual: g.dual, Tree: tree, Assignment: a}
}

// terminals lists the source followed by R: index 0 is the source, and
// index i ≥ 1 is R[i−1].
func terminals(nw *wireless.Network, R []int) []int {
	return append([]int{nw.Source()}, R...)
}

// table holds the shortest-path tree from every station of one network,
// distances and parents (16·n² bytes), swept on first use. A Mechanism
// and a Method each own one, so it lives exactly as long as they do
// (DESIGN.md §11.5).
type table struct {
	nw    *wireless.Network
	once  sync.Once
	trees []*paths.Tree
}

// get returns the trees, indexed by root station, sweeping them on the
// first call; concurrent first callers wait for the one sweep.
func (t *table) get() []*paths.Tree {
	t.once.Do(func() {
		trees := make([]*paths.Tree, t.nw.N())
		for s := range trees {
			trees[s] = paths.DijkstraMatrix(t.nw.CostMatrix(), s)
		}
		t.trees = trees
	})
	return t.trees
}

// method is the moat cost-sharing method over the table's trees.
func (t *table) method(w Weights) sharing.Method {
	return sharing.MethodFunc(func(R []int) map[int]float64 {
		if len(R) == 0 {
			return map[int]float64{}
		}
		return grow(t.get(), terminals(t.nw, R), w, false).shares
	})
}

// growth is one run of the growth process over a terminal list.
type growth struct {
	shares map[int]float64
	dual   float64
	// merges lists the merging terminal pairs (i, j), i < j, as indices
	// into the terminal list, in merge order; nil unless asked for.
	merges [][2]int
}

// pair is a terminal pair i < j with its distance d(i, j).
type pair struct {
	d    float64
	i, j int32
}

// grow runs the growth process over terms (terms[0] is the source) on
// the distances of trees, indexed by root station, and returns the
// shares, the dual and, when wantMerges is set, the merge list.
//
// Every moat grows at rate 1, so all radii equal one float r, and the
// next meeting is the pair in different components whose meeting time
// ((d − r) − r)/2 is least. That time never falls as d rises, so the
// merges come in Kruskal order: grow sorts the pairs by (d, i, j) once
// and walks them with a union-find. Two rules give the bits of a scan
// of every pair at every step, which the tests keep as the reference
// (DESIGN.md §11.5): d(i, j) is read from the tree of terms[i] for
// i < j, and among the pairs whose meeting time equals the least one,
// which distinct distances can round to, the lexicographically first
// (i, j) merges.
func grow(trees []*paths.Tree, terms []int, w Weights, wantMerges bool) growth {
	k := len(terms)
	pairs := make([]pair, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		dist := trees[terms[i]].Dist
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, pair{dist[terms[j]], int32(i), int32(j)})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		case a.i != b.i:
			return int(a.i - b.i)
		}
		return int(a.j - b.j)
	})

	// Per terminal: its weight f_i, its accumulated share, and, at a
	// component's root, the component's weight sum.
	buf := make([]float64, 3*k)
	wt, acc, wsum := buf[:k], buf[k:2*k], buf[2*k:]
	for i := 1; i < k; i++ {
		wt[i] = 1
		if w != nil {
			wt[i] = w(terms[i])
		}
	}
	g := growth{}
	if wantMerges {
		g.merges = make([][2]int, 0, k-1)
	}
	comp := graph.NewUnionFind(k)
	var r float64 // the common moat radius
	meet := func(d float64) float64 { return (d - r - r) / 2 }
	for next := 0; comp.Sets() > 1; {
		// Pairs before next are inside one component for good.
		for comp.Same(int(pairs[next].i), int(pairs[next].j)) {
			next++
		}
		best, a, b := meet(pairs[next].d), pairs[next].i, pairs[next].j
		if math.IsInf(best, 1) {
			break // disconnected (cannot happen on complete graphs)
		}
		for _, q := range pairs[next+1:] {
			if meet(q.d) != best {
				break
			}
			if (q.i < a || q.i == a && q.j < b) && !comp.Same(int(q.i), int(q.j)) {
				a, b = q.i, q.j
			}
		}
		if best < 0 {
			best = 0 // simultaneous meetings
		}
		// Advance time: every moat grows; only components without the
		// source pay, 2·best per component, split by the weights f_i.
		r += best
		src := comp.Find(0)
		clear(wsum)
		for i := 1; i < k; i++ {
			if c := comp.Find(i); c != src {
				wsum[c] += wt[i]
			}
		}
		// One addend per paying component, as the reference scan adds
		// them; a product would round differently.
		for c := comp.Sets() - 1; c > 0; c-- {
			g.dual += best
		}
		for i := 1; i < k; i++ {
			if c := comp.Find(i); c != src {
				acc[i] += 2 * best * wt[i] / wsum[c]
			}
		}
		if wantMerges {
			g.merges = append(g.merges, [2]int{int(a), int(b)})
		}
		comp.Union(int(a), int(b))
	}
	// Every agent pays from the first step on, so the agents have shares
	// unless the growth never started.
	g.shares = make(map[int]float64, k-1)
	if comp.Sets() < k {
		for i := 1; i < k; i++ {
			g.shares[terms[i]] = acc[i]
		}
	}
	return g
}

// realize builds the merge tree's power assignment: the union of the
// shortest paths of the merges, re-spanned from the source and pruned
// to the terminals and then to R.
func realize(nw *wireless.Network, trees []*paths.Tree, terms []int, merges [][2]int, R []int) (wireless.Tree, wireless.Assignment) {
	sub := graph.New(nw.N())
	seen := map[[2]int]bool{}
	for _, mg := range merges {
		path := trees[terms[mg[0]]].PathTo(terms[mg[1]])
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
	edges := steiner.Prune(nw.N(), mst.Prim(sub, nw.Source()), terms)
	tree := wireless.TreeFromUndirectedEdges(nw.N(), edges, nw.Source())
	tree = wireless.PruneTree(tree, R)
	return tree, nw.AssignmentForTree(tree)
}

// checkWeights panics unless w is nil or gives every receiver of nw a
// finite growth weight f_i > 0: a zero, negative, NaN or infinite
// weight turns the growth split into NaN shares.
func checkWeights(nw *wireless.Network, w Weights) {
	if w == nil {
		return
	}
	for _, a := range nw.AllReceivers() {
		if f := w(a); !(f > 0) || math.IsInf(f, 1) {
			panic(fmt.Sprintf("jv: agent %d has growth weight %v; the moat family needs finite f_i > 0", a, f))
		}
	}
}

// Method returns the moat cost-sharing method ξ(R, ·) as a sharing.Method
// (used both by the mechanism and by the cross-monotonicity experiments).
// It keeps one table of shortest-path trees across its calls, swept on
// the first. It panics when a weight is outside the moat family (see
// NewMechanism).
func Method(nw *wireless.Network, w Weights) sharing.Method {
	checkWeights(nw, w)
	return (&table{nw: nw}).method(w)
}

// Mechanism wraps Moulin–Shenker over the moat method: the Theorem 3.6
// group-strategyproof 2(3^d − 1)-BB wireless multicast mechanism. Like
// every mechanism it is defined over a fixed network: it reads the
// costs once, on its first Run, and is safe for concurrent use.
type Mechanism struct {
	Net     *wireless.Network
	weights Weights
	trees   *table
}

// NewMechanism builds the mechanism; nil weights mean the uniform member
// of the JV family. It calls w for every receiver and panics, naming
// the agent and its weight, unless each weight is finite and positive.
// The shortest-path trees from every station are swept on the first
// Run, not here: query.VersionedEvaluator.Update rebuilds every built
// mechanism on each network update, and a sweep here would add n
// Dijkstras to every update.
func NewMechanism(nw *wireless.Network, w Weights) *Mechanism {
	checkWeights(nw, w)
	return &Mechanism{Net: nw, weights: w, trees: &table{nw: nw}}
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
// final receiver set's tree. The rounds compute shares only; the merge
// tree is grown once more, for the final receivers.
func (m *Mechanism) RunDetailed(u mech.Profile) Result {
	res := sharing.MoulinShenker(m.Agents(), m.trees.method(m.weights), u)
	if len(res.Receivers) == 0 {
		return Result{
			Outcome:    mech.Outcome{Shares: map[int]float64{}},
			Assignment: make(wireless.Assignment, m.Net.N()),
		}
	}
	trees, terms := m.trees.get(), terminals(m.Net, res.Receivers)
	_, a := realize(m.Net, trees, terms, grow(trees, terms, m.weights, true).merges, res.Receivers)
	return Result{
		Outcome: mech.Outcome{
			Receivers: res.Receivers,
			Shares:    res.Shares,
			Cost:      a.Total(),
		},
		Assignment: a,
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
