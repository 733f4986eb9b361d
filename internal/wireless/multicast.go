package wireless

import "wmcs/internal/mst"

// SPTMulticast builds a multicast tree from the shortest-path tree of the
// cost graph pruned to the receivers — the Penna–Ventre [43] universal
// choice specialized to one receiver set. It is the cheapest-per-path
// baseline: good when receivers are scattered, weak when relaying could
// share power.
func SPTMulticast(nw *Network, R []int) (Tree, Assignment) {
	n := nw.N()
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = 1e308
		parent[i] = -1
	}
	dist[nw.Source()] = 0
	for it := 0; it < n; it++ {
		u, best := -1, 1e308
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if !done[v] {
				if nd := best + nw.C(u, v); nd < dist[v] {
					dist[v] = nd
					parent[v] = u
				}
			}
		}
	}
	t := NewTree(n, nw.Source())
	copy(t.Parent, parent)
	t.Parent[nw.Source()] = -1
	t = PruneTree(t, R)
	return t, nw.AssignmentForTree(t)
}

// BIPMulticast runs the BIP broadcast heuristic and prunes the resulting
// tree to the receivers (the "pruned BIP" multicast baseline of
// Wieselthier et al. [50]).
func BIPMulticast(nw *Network, R []int) (Tree, Assignment) {
	t, _ := BIPBroadcast(nw)
	t = PruneTree(t, R)
	return t, nw.AssignmentForTree(t)
}

// MSTMulticast prunes the MST broadcast tree to the receivers, the
// multicast analogue of the MST heuristic.
func MSTMulticast(nw *Network, R []int) (Tree, Assignment) {
	edges := mst.PrimMatrix(nw.CostMatrix(), nw.Source())
	t := TreeFromUndirectedEdges(nw.N(), edges, nw.Source())
	t = PruneTree(t, R)
	return t, nw.AssignmentForTree(t)
}

// MulticastHeuristics names the multicast tree builders compared by
// experiment E12.
var MulticastHeuristics = []struct {
	Name  string
	Build func(nw *Network, R []int) (Tree, Assignment)
}{
	{Name: "steiner-kmb", Build: SteinerMulticast},
	{Name: "mst-pruned", Build: MSTMulticast},
	{Name: "bip-pruned", Build: BIPMulticast},
	{Name: "spt-pruned", Build: SPTMulticast},
}
