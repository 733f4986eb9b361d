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
	"sort"
	"sync"

	"wmcs/internal/graph"
	"wmcs/internal/nwst"
	"wmcs/internal/paths"
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
	// chains is H's station-chain description for the node-weighted
	// sweep, derived on the first Chains call: never by New or Rebuild,
	// so the PATCH warm, which rebuilds the reduction and every built
	// mechanism, does not pay for it.
	chainsOnce sync.Once
	chains     *nwst.Chains
}

// New builds the reduction graph for all stations of the network.
func New(nw *wireless.Network) *Reduction {
	n := nw.N()
	rd := &Reduction{Net: nw, In: make([]int, n), OutNodes: make([][]int, n)}
	var weights []float64
	var station []int
	addNode := func(st int, w float64) int {
		weights = append(weights, w)
		station = append(station, st)
		return len(weights) - 1
	}
	// Input nodes first.
	for i := 0; i < n; i++ {
		rd.In[i] = addNode(i, 0)
	}
	// Output nodes: one per distinct cost.
	type outLevel struct {
		id   int
		cost float64
	}
	outLevels := make([][]outLevel, n)
	for i := 0; i < n; i++ {
		costs := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				costs = append(costs, nw.C(i, j))
			}
		}
		sort.Float64s(costs)
		for m, c := range costs {
			if m > 0 && costs[m-1] == c {
				continue
			}
			id := addNode(i, c)
			rd.OutNodes[i] = append(rd.OutNodes[i], id)
			outLevels[i] = append(outLevels[i], outLevel{id: id, cost: c})
		}
	}
	g := graph.New(len(weights))
	for i := 0; i < n; i++ {
		for _, ol := range outLevels[i] {
			g.AddEdge(rd.In[i], ol.id, 0)
			for j := 0; j < n; j++ {
				if j != i && ol.cost >= nw.C(i, j) {
					g.AddEdge(ol.id, rd.In[j], 0)
				}
			}
		}
	}
	rd.G = g
	rd.Weights = weights
	rd.station = station
	return rd
}

// Station returns the station owning H node v.
func (rd *Reduction) Station(v int) int { return rd.station[v] }

// Chains implements nwst.ChainSource: H's station-chain description,
// derived from G's adjacency lists on the first call and shared by every
// later one, so New and Rebuild reductions are described by the same
// code. A State asks for it when it is built. It is nil only if G does
// not fit the layout, which New and Rebuild rule out; the sweep then
// scans every edge, with the same results.
func (rd *Reduction) Chains() *nwst.Chains {
	rd.chainsOnce.Do(func() {
		if c, err := nwst.DescribeChains(rd.G, rd.Weights, len(rd.In)); err == nil {
			rd.chains = c
		}
	})
	return rd.chains
}

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
	return nwst.Instance{G: rd.G, Weights: rd.Weights, Terminals: terms, Free: free, Chains: rd}
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
	// BFS over the pruned tree.
	sub := graph.New(rd.G.N())
	for _, e := range edges {
		sub.AddEdge(e.From, e.To, 0)
	}
	_, parent, order := paths.BFS(sub, rd.In[src])
	num := make([]int, rd.G.N())
	for i := range num {
		num[i] = -1
	}
	for i, v := range order {
		num[v] = i
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
		u, v := e.From, e.To
		if num[u] > num[v] {
			u, v = v, u
		}
		a, b := rd.station[u], rd.station[v]
		if a == b {
			continue
		}
		c := rd.Net.C(a, b)
		ex.Arcs = append(ex.Arcs, graph.Edge{From: a, To: b, W: c})
		if c > ex.Pi[a] {
			ex.Pi[a] = c
		}
	}
	_ = parent
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
