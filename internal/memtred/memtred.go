// Package memtred implements the Caragiannis–Kaklamanis–Kanellopoulos
// reduction [9] from minimum-energy multicast (MEMT) in symmetric wireless
// networks to the node-weighted Steiner tree problem (NWST), plus the
// reverse extraction that turns an NWST solution back into a directed
// multicast tree and power assignment (§2.2.1 of the paper).
//
// The reduction builds one supernode per station: a zero-weight input node
// Z⁰_i and one output node Zᵐ_i of weight Cᵐ_i per distinct transmission
// cost of the station. An edge (Zᵐ_i, Z⁰_j) exists whenever Cᵐ_i ≥ c(i,j),
// and each input node connects to its own output nodes. A ρ-approximate
// NWST solution yields a 2ρ-approximate multicast assignment: the BFS
// orientation of the Steiner tree may force stations to pay edges the
// NWST cost did not account for, at most doubling the total.
package memtred

import (
	"slices"
	"sort"

	"wmcs/internal/graph"
	"wmcs/internal/nwst"
	"wmcs/internal/steiner"
	"wmcs/internal/wireless"
)

// Reduction holds the NWST host graph built from a wireless network.
type Reduction struct {
	Net     *wireless.Network
	G       *graph.Graph
	Weights []float64
	// In[i] is the input node Z⁰_i of station i.
	In []int
	// OutNodes[i] lists station i's output node ids, sorted by weight
	// (the distinct transmission costs Cᵐ_i ascending).
	OutNodes [][]int
	// station[v] maps every H node back to its station.
	station []int
	// thr[j*n+i] is the first level of station i that reaches station j
	// (0 for i == j): G's layout, from which build derives every list
	// and chains is described.
	thr    []int32
	chains *nwst.Chains
}

// New builds the reduction graph for all stations of the network.
func New(nw *wireless.Network) *Reduction { return build(nw, nil, nil) }

// build lays out H for nw. Station i's levels are its distinct costs
// ascending, and since c(i, j) is one of them, the first level that
// reaches station j, thr(i, j), is found by binary search. Inputs are
// nodes 0..n−1 and each station's outputs follow in station order, so
// the layout is a function of the cost rows, and everything else is read
// off it:
//   - output (i, m) lists In(i), then each In(j), j ≠ i ascending, with
//     thr(i, j) ≤ m;
//   - input j lists each station's outputs from thr(i, j) on, in station
//     order (all of its own station's outputs);
//   - the sweep's chain description (nwst.NewChains).
//
// With a donor prev, only the stations marked in dirty are laid out
// again: a clean station's levels, its column of the table and its
// output lists are prev's, since they depend only on its own cost row,
// and input j's list is prev's when row j of the table did not move. It
// returns nil when a dirty station's level count changed, since the
// output ids after it would shift. Shared lists are safe because a
// reduction is immutable once built: every consumer that mutates (the
// NWST contraction state) works on a Clone.
func build(nw *wireless.Network, prev *Reduction, dirty []bool) *Reduction {
	n := nw.N()
	reused := func(i int) bool { return prev != nil && !dirty[i] }
	rd := &Reduction{Net: nw, thr: make([]int32, n*n)}
	if prev != nil {
		copy(rd.thr, prev.thr)
	}
	// levels[i] holds the levels of every station laid out again.
	levels := make([][]float64, n)
	costs := make([]float64, n*n)
	for i := 0; i < n; i++ {
		if reused(i) {
			continue
		}
		lv := costs[i*n : i*n]
		for j := 0; j < n; j++ {
			if j != i {
				lv = append(lv, nw.C(i, j))
			}
		}
		slices.Sort(lv)
		lv = slices.Compact(lv)
		if prev != nil && len(lv) != len(prev.OutNodes[i]) {
			return nil
		}
		for j := 0; j < n; j++ {
			if j != i {
				t, _ := slices.BinarySearch(lv, nw.C(i, j))
				rd.thr[j*n+i] = int32(t)
			}
		}
		levels[i] = lv
	}

	// A donor's level counts are the layout's: the dirty stations kept
	// theirs.
	first := make([]int32, n+1)
	first[0] = int32(n)
	for i := 0; i < n; i++ {
		count := len(levels[i])
		if prev != nil {
			count = len(prev.OutNodes[i])
		}
		first[i+1] = first[i] + int32(count)
	}
	N := int(first[n])
	if prev != nil {
		rd.In, rd.OutNodes, rd.station = prev.In, prev.OutNodes, prev.station
		rd.Weights = slices.Clone(prev.Weights)
	} else {
		ids := make([]int, N)
		for v := range ids {
			ids[v] = v
		}
		rd.In, rd.OutNodes = ids[:n:n], make([][]int, n)
		rd.station, rd.Weights = make([]int, N), make([]float64, N)
		for i := 0; i < n; i++ {
			a, b := first[i], first[i+1]
			rd.OutNodes[i] = ids[a:b:b]
			rd.station[i] = i
			for v := a; v < b; v++ {
				rd.station[v] = i
			}
		}
	}
	for i, lv := range levels {
		copy(rd.Weights[first[i]:first[i+1]], lv)
	}

	adj := make([][]graph.Edge, N)
	m := 0 // every edge of H has exactly one output endpoint
	for i, outs := range rd.OutNodes {
		if reused(i) {
			for _, v := range outs {
				adj[v] = prev.G.Neighbors(v)
				m += len(adj[v])
			}
			continue
		}
		size := len(outs)
		for j := 0; j < n; j++ {
			if j != i {
				size += len(outs) - int(rd.thr[j*n+i])
			}
		}
		edges := make([]graph.Edge, 0, size)
		for lvl, v := range outs {
			start := len(edges)
			edges = append(edges, graph.Edge{From: v, To: i})
			for j := 0; j < n; j++ {
				if j != i && int(rd.thr[j*n+i]) <= lvl {
					edges = append(edges, graph.Edge{From: v, To: j})
				}
			}
			adj[v] = edges[start:len(edges):len(edges)]
		}
		m += size
	}
	for j := 0; j < n; j++ {
		row := rd.thr[j*n : (j+1)*n]
		if prev != nil && slices.Equal(row, prev.thr[j*n:(j+1)*n]) {
			adj[j] = prev.G.Neighbors(j)
			continue
		}
		size := 0
		for i, t := range row {
			size += len(rd.OutNodes[i]) - int(t)
		}
		l := make([]graph.Edge, 0, size)
		for i, t := range row {
			for _, v := range rd.OutNodes[i][t:] {
				l = append(l, graph.Edge{From: j, To: v})
			}
		}
		adj[j] = l
	}
	rd.G = graph.Assemble(adj, m)
	rd.chains = nwst.NewChains(first, rd.thr)
	return rd
}

// Station returns the station owning H node v.
func (rd *Reduction) Station(v int) int { return rd.station[v] }

// Chains returns H's station-chain description for the node-weighted
// sweep, built with the reduction.
func (rd *Reduction) Chains() *nwst.Chains { return rd.chains }

// Instance returns the NWST instance for receivers R: terminals are the
// input nodes of R and of the source, with the source marked free (it
// must be connected but never pays, per §2.2.3).
func (rd *Reduction) Instance(R []int) nwst.Instance {
	terms := make([]int, 0, len(R)+1)
	free := make([]bool, 0, len(R)+1)
	terms = append(terms, rd.In[rd.Net.Source()])
	free = append(free, true)
	for _, r := range R {
		terms = append(terms, rd.In[r])
		free = append(free, false)
	}
	return nwst.Instance{G: rd.G, Weights: rd.Weights, Terminals: terms, Free: free, Chains: rd.chains}
}

// Extraction is the wireless realization of an NWST solution.
type Extraction struct {
	// Arcs are the station-level directed edges ⟨x_a, x_b⟩ produced by the
	// BFS orientation, with W = c(a, b).
	Arcs []graph.Edge
	// Pi is the power assignment implementing the orientation.
	Pi wireless.Assignment
	// PiNWST is the per-station power already paid for inside the NWST
	// solution (the heaviest chosen output node that survived pruning).
	PiNWST wireless.Assignment
	// Order lists stations in BFS visit order from the source (the
	// "enumeration" that §2.2.3 step (c) walks backward).
	Order []int
}

// Extract converts a set of chosen H nodes (which must connect the input
// nodes of R ∪ {source}) into a station-level multicast structure: build a
// spanning tree of the induced subgraph, prune non-terminal branches, BFS
// from the source's input node, orient every inter-station edge from lower
// to higher BFS number, and give each station the maximum cost among its
// outgoing arcs.
func (rd *Reduction) Extract(nodes []int, R []int) Extraction {
	src := rd.Net.Source()
	terms := []int{rd.In[src]}
	for _, r := range R {
		terms = append(terms, rd.In[r])
	}
	edges := nwst.SpanningTree(rd.G, nodes, rd.In[src])
	edges = steiner.Prune(rd.G.N(), edges, terms)
	// SpanningTree lists each edge when its To end is first reached and
	// Prune keeps that order, so the source's input node followed by the
	// kept edges' To ends is the pruned tree's BFS order, children in
	// discovery order, and every edge runs from the lower BFS number to
	// the higher.
	order := make([]int, 1, len(edges)+1)
	order[0] = rd.In[src]
	for _, e := range edges {
		order = append(order, e.To)
	}
	n := rd.Net.N()
	ex := Extraction{
		Pi:     make(wireless.Assignment, n),
		PiNWST: make(wireless.Assignment, n),
	}
	seenStation := make([]bool, n)
	for _, v := range order {
		if st := rd.station[v]; !seenStation[st] {
			seenStation[st] = true
			ex.Order = append(ex.Order, st)
		}
	}
	for _, e := range edges {
		a, b := rd.station[e.From], rd.station[e.To]
		if a == b {
			continue
		}
		c := rd.Net.C(a, b)
		ex.Arcs = append(ex.Arcs, graph.Edge{From: a, To: b, W: c})
		if c > ex.Pi[a] {
			ex.Pi[a] = c
		}
	}
	// Power paid for inside the NWST solution: heaviest surviving output
	// node per station.
	for _, v := range order {
		st := rd.station[v]
		if w := rd.Weights[v]; w > ex.PiNWST[st] {
			ex.PiNWST[st] = w
		}
	}
	sort.Slice(ex.Arcs, func(i, j int) bool {
		if ex.Arcs[i].From != ex.Arcs[j].From {
			return ex.Arcs[i].From < ex.Arcs[j].From
		}
		return ex.Arcs[i].To < ex.Arcs[j].To
	})
	return ex
}

// DownstreamReceivers returns, for the arc structure of an extraction,
// the receivers strictly downstream of each station (following arcs
// transitively). Arcs follow increasing BFS numbers, so the walk
// terminates.
//
// The result is indexed by station and each entry is sorted ascending
// (nil for stations with no outgoing arcs), so iterating it is
// deterministic by construction — no map-order discipline required of
// the caller.
func (ex *Extraction) DownstreamReceivers(n int, R []int) [][]int {
	isR := make([]bool, n)
	for _, r := range R {
		isR[r] = true
	}
	adj := make([][]int, n)
	for _, a := range ex.Arcs {
		adj[a.From] = append(adj[a.From], a.To)
	}
	out := make([][]int, n)
	seen := make([]bool, n)
	var collect func(v int, acc *[]int)
	collect = func(v int, acc *[]int) {
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				if isR[w] {
					*acc = append(*acc, w)
				}
				collect(w, acc)
			}
		}
	}
	for v := 0; v < n; v++ {
		if len(adj[v]) == 0 {
			continue
		}
		for i := range seen {
			seen[i] = false
		}
		var acc []int
		collect(v, &acc)
		sort.Ints(acc)
		out[v] = acc
	}
	return out
}
