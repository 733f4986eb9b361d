// Package universal implements the §2.1 mechanisms for symmetric wireless
// networks, where power assignments are induced by a fixed universal
// broadcast tree T(S\{s}): for a receiver set R, the multicast tree T(R)
// is the union of the tree paths from the source to R, and each station
// transmits at the maximum cost of its T(R) child edges.
//
// By Lemma 2.1 the induced cost function is non-decreasing and
// submodular, so the Shapley value yields a budget-balanced group
// strategyproof mechanism (via Moulin–Shenker) and the marginal-cost
// (VCG) mechanism is efficient and strategyproof. The Shapley value has
// the closed child-increment form described in §2.1, implemented here in
// O(n²) instead of the exponential Eq. (4).
package universal

import (
	"math"
	"sort"
	"sync"

	"wmcs/internal/mech"
	"wmcs/internal/mst"
	"wmcs/internal/paths"
	"wmcs/internal/sharing"
	"wmcs/internal/wireless"
)

// Tree is a universal broadcast tree over a network: a directed spanning
// tree rooted at the source.
type Tree struct {
	Net  *wireless.Network
	Span wireless.Tree
}

// SPT builds the universal tree as the shortest-path tree of the cost
// graph, the choice suggested by Penna–Ventre [43] for O(n)-CO.
func SPT(nw *wireless.Network) *Tree {
	t := paths.DijkstraMatrix(nw.CostMatrix(), nw.Source())
	span := wireless.NewTree(nw.N(), nw.Source())
	for v := range t.Parent {
		if v != nw.Source() {
			span.Parent[v] = t.Parent[v]
		}
	}
	return &Tree{Net: nw, Span: span}
}

// MST builds the universal tree as the minimum spanning tree of the cost
// graph oriented away from the source (the MST heuristic's tree).
func MST(nw *wireless.Network) *Tree {
	edges := mst.PrimMatrix(nw.CostMatrix(), nw.Source())
	return &Tree{Net: nw, Span: wireless.TreeFromUndirectedEdges(nw.N(), edges, nw.Source())}
}

// FromTree wraps an arbitrary spanning tree as a universal tree. The tree
// must span every station.
func FromTree(nw *wireless.Network, span wireless.Tree) *Tree {
	return &Tree{Net: nw, Span: span}
}

// Multicast returns T(R): the subtree of the universal tree spanning
// R ∪ {s}.
func (ut *Tree) Multicast(R []int) wireless.Tree {
	return wireless.PruneTree(ut.Span, R)
}

// costBuf is the scratch of Cost and Prefixes: which stations T(R)
// keeps, and each station's transmit power.
type costBuf struct {
	need []bool
	pow  []float64
}

// costBufs pools the scratch across calls and goroutines; the sampled
// Shapley tier prices tens of thousands of subsets per query.
var costBufs = sync.Pool{New: func() any { return new(costBuf) }}

// reset makes b hold T(∅) over ut's stations: only the source is kept
// and every power is 0.
func (ut *Tree) reset(b *costBuf) {
	n := ut.Net.N()
	if cap(b.need) < n {
		b.need, b.pow = make([]bool, n), make([]float64, n)
	}
	b.need, b.pow = b.need[:n], b.pow[:n]
	clear(b.need)
	clear(b.pow)
	b.need[ut.Span.Root] = true
}

// join adds v's root path to the T(R) that b holds. Each station joins
// at most once, and when it joins it raises its parent's power to their
// edge's cost; a maximum does not depend on the order the stations
// join in. It reports whether any power rose.
func (ut *Tree) join(b *costBuf, v int) bool {
	span := ut.Span
	if !span.InTree(v) {
		return false
	}
	rose := false
	for x := v; x != -1 && !b.need[x]; x = span.Parent[x] {
		b.need[x] = true
		if p := span.Parent[x]; p >= 0 {
			if c := ut.Net.C(p, x); c > b.pow[p] {
				b.pow[p] = c
				rose = true
			}
		}
	}
	return rose
}

// total sums the powers in station order.
func (b *costBuf) total() float64 {
	var total float64
	for _, p := range b.pow {
		total += p
	}
	return total
}

// Cost returns C(R), the total power of the assignment induced by T(R).
// It is the non-decreasing submodular cost function of Lemma 2.1. It
// computes Net.AssignmentForTree(Multicast(R)).Total() with the same
// maxima and the same ascending summation, so the bits match, on pooled
// scratch that allocates nothing.
func (ut *Tree) Cost(R []int) float64 {
	b := costBufs.Get().(*costBuf)
	defer costBufs.Put(b)
	ut.reset(b)
	for _, v := range R {
		ut.join(b, v)
	}
	return b.total()
}

// Prefixes implements sharing.PrefixCost for Cost: out[i] =
// Cost(order[:i+1]). It joins the agents in order and sums after each
// join the same power array Cost sums, so every prefix carries Cost's
// bits; a join that raises no power keeps the previous total.
func (ut *Tree) Prefixes(order []int, out []float64) {
	b := costBufs.Get().(*costBuf)
	defer costBufs.Put(b)
	ut.reset(b)
	total := 0.0
	for i, v := range order {
		if ut.join(b, v) {
			total = b.total()
		}
		out[i] = total
	}
}

// CostFunc adapts Cost to the sharing package's oracle type.
func (ut *Tree) CostFunc() sharing.CostFunc {
	return func(R []int) float64 { return ut.Cost(R) }
}

// Shapley computes the Shapley value shares of C restricted to the
// receiver set R, using the closed form of §2.1: at each station x of
// T(R) with children y_1, …, y_m ordered by non-decreasing edge cost, the
// power increment c(x, y_i) − c(x, y_{i−1}) is split equally among the
// receivers routed through y_i, …, y_m.
func (ut *Tree) Shapley(R []int) map[int]float64 {
	tr := ut.Multicast(R)
	n := ut.Net.N()
	inR := make([]bool, n)
	for _, r := range R {
		inR[r] = true
	}
	children := tr.Children()
	// Receivers in each subtree, by reverse-BFS accumulation.
	cnt := make([]int, n)
	order := bfsOrder(tr)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if inR[v] {
			cnt[v]++
		}
		if p := tr.Parent[v]; p >= 0 {
			cnt[p] += cnt[v]
		}
	}
	// Per-child marker: the per-receiver rate charged to every receiver in
	// or below that child.
	marker := make([]float64, n)
	for _, x := range order {
		ch := append([]int(nil), children[x]...)
		if len(ch) == 0 {
			continue
		}
		sort.Slice(ch, func(a, b int) bool {
			ca, cb := ut.Net.C(x, ch[a]), ut.Net.C(x, ch[b])
			if ca != cb {
				return ca < cb
			}
			return ch[a] < ch[b]
		})
		suffix := make([]int, len(ch)+1)
		for i := len(ch) - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1] + cnt[ch[i]]
		}
		prev := 0.0
		for i, y := range ch {
			inc := ut.Net.C(x, y) - prev
			prev = ut.Net.C(x, y)
			if inc <= 0 || suffix[i] == 0 {
				continue
			}
			rate := inc / float64(suffix[i])
			for _, z := range ch[i:] {
				marker[z] += rate
			}
		}
	}
	// Accumulate markers down the tree; a receiver pays the sum of the
	// markers on its root path.
	shares := make(map[int]float64, len(R))
	acc := make([]float64, n)
	for _, v := range order {
		if p := tr.Parent[v]; p >= 0 {
			acc[v] = acc[p] + marker[v]
		}
		if inR[v] {
			shares[v] = acc[v]
		}
	}
	return shares
}

func bfsOrder(tr wireless.Tree) []int {
	children := tr.Children()
	order := []int{tr.Root}
	for i := 0; i < len(order); i++ {
		order = append(order, children[order[i]]...)
	}
	return order
}

// ShapleyMethod adapts Shapley to the sharing.Method interface.
func (ut *Tree) ShapleyMethod() sharing.Method {
	return sharing.MethodFunc(func(R []int) map[int]float64 { return ut.Shapley(R) })
}

// ShapleyMechanism returns the §2.1 budget-balanced group-strategyproof
// mechanism: Moulin–Shenker iteration over the closed-form tree Shapley
// value. The name is a package-internal default for direct
// constructions; the public registry name is assigned by the mechanism
// descriptor registry (internal/mechreg), which owns all public names.
func ShapleyMechanism(ut *Tree) mech.Mechanism {
	return &sharing.MechanismFromMethod{
		MechName: "tree-shapley",
		AgentSet: ut.Net.AllReceivers(),
		Xi:       ut.ShapleyMethod(),
		Cost:     ut.CostFunc(),
		Prefixes: ut.Prefixes,
	}
}

// MCMechanism returns the §2.1 efficient strategyproof marginal-cost
// (VCG) mechanism on the universal tree: the largest efficient receiver
// set, charged Clarke pivots. The name is a package-internal default;
// the registry (internal/mechreg) assigns the public universal-mc name.
func MCMechanism(ut *Tree) mech.Mechanism {
	return &sharing.MarginalCost{
		MechName:  "tree-mc",
		AgentSet:  ut.Net.AllReceivers(),
		Efficient: ut.LargestEfficientSet,
		Cost:      ut.Cost,
	}
}

// LargestEfficientSet maximizes NW(R) = Σ_{i∈R} u_i − C(R) over receiver
// sets by bottom-up dynamic programming on the universal tree, returning
// the largest maximizer and its net worth. At each station the DP picks
// the transmit power (an edge cost to one of its children, or zero) and
// includes every covered child subtree with nonnegative welfare; ties
// break toward including more stations, which yields the largest
// efficient set (well-defined by submodularity, Lemma 2.1).
func (ut *Tree) LargestEfficientSet(u mech.Profile) ([]int, float64) {
	n := ut.Net.N()
	children := ut.Span.Children()
	order := bfsOrder(ut.Span)
	// B[v] = best welfare of v's subtree given v is reached and counted;
	// keep[v] = chosen max-power child index (−1 = transmit nothing).
	B := make([]float64, n)
	keepJ := make([]int, n)
	sortedCh := make([][]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		ch := append([]int(nil), children[x]...)
		sort.Slice(ch, func(a, b int) bool {
			ca, cb := ut.Net.C(x, ch[a]), ut.Net.C(x, ch[b])
			if ca != cb {
				return ca < cb
			}
			return ch[a] < ch[b]
		})
		sortedCh[x] = ch
		bestG, bestJ := 0.0, -1
		run := 0.0
		for j, y := range ch {
			if B[y] >= 0 {
				run += B[y]
			}
			g := run - ut.Net.C(x, y)
			if g >= bestG { // ≥ prefers larger j ⇒ larger set
				bestG, bestJ = g, j
			}
		}
		keepJ[x] = bestJ
		util := 0.0
		if x != ut.Span.Root {
			util = u[x]
		}
		B[x] = util + bestG
	}
	// Reconstruct the selected set top-down.
	var R []int
	var walk func(x int)
	walk = func(x int) {
		if x != ut.Span.Root {
			R = append(R, x)
		}
		j := keepJ[x]
		for idx := 0; idx <= j; idx++ {
			if y := sortedCh[x][idx]; B[y] >= 0 {
				walk(y)
			}
		}
	}
	walk(ut.Span.Root)
	sort.Ints(R)
	nw := B[ut.Span.Root]
	if math.Signbit(nw) && nw == 0 {
		nw = 0
	}
	return R, nw
}
