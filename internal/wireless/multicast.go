package wireless

import "wmcs/internal/paths"

// SPTMulticast builds a multicast tree from the shortest-path tree of the
// cost graph pruned to the receivers — the Penna–Ventre [43] universal
// choice specialized to one receiver set. It is the cheapest-per-path
// baseline: good when receivers are scattered, weak when relaying could
// share power.
func SPTMulticast(nw *Network, R []int) (Tree, Assignment) {
	spt := paths.DijkstraMatrix(nw.CostMatrix(), nw.Source())
	t := PruneTree(Tree{Root: nw.Source(), Parent: spt.Parent}, R)
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
	t, _ := MSTBroadcast(nw)
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
