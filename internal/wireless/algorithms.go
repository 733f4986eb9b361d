package wireless

import (
	"fmt"
	"math"
	"sort"

	"wmcs/internal/graph"
	"wmcs/internal/mst"
	"wmcs/internal/steiner"
)

// MSTBroadcast implements the MST heuristic of Wieselthier et al. [50]:
// compute a minimum spanning tree of the cost graph, orient it away from
// the source, and set each station's power to its maximum child edge.
// For Euclidean instances its cost is at most (3^d − 1)·OPT (Lemma 3.4 /
// [21]), and at most 6·OPT for d = 2 [1].
func MSTBroadcast(nw *Network) (Tree, Assignment) {
	edges := mst.PrimMatrix(nw.CostMatrix(), nw.Source())
	t := TreeFromUndirectedEdges(nw.N(), edges, nw.Source())
	return t, nw.AssignmentForTree(t)
}

// BIPBroadcast implements the Broadcast Incremental Power heuristic of
// Wieselthier et al. [50]: greedily add the station whose reachability
// costs the least *additional* power at some already-covered station.
func BIPBroadcast(nw *Network) (Tree, Assignment) {
	n := nw.N()
	t := NewTree(n, nw.Source())
	a := make(Assignment, n)
	in := make([]bool, n)
	in[nw.Source()] = true
	for added := 1; added < n; added++ {
		bestU, bestV, bestInc := -1, -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if !in[u] {
				continue
			}
			for v := 0; v < n; v++ {
				if in[v] {
					continue
				}
				if inc := nw.C(u, v) - a[u]; inc < bestInc {
					bestU, bestV, bestInc = u, v, inc
				}
			}
		}
		if bestU < 0 {
			break
		}
		if bestInc > 0 {
			a[bestU] = nw.C(bestU, bestV)
		}
		in[bestV] = true
		t.Parent[bestV] = bestU
	}
	return t, a
}

// SteinerMulticast computes a multicast tree for receivers R via the
// Kou–Markowsky–Berman 2-approximate Steiner tree on the cost graph, then
// applies the Steiner heuristic (§3.2): orient the tree downward from the
// source and give each station the power of its costliest child edge. The
// resulting assignment costs at most the Steiner tree's weight.
func SteinerMulticast(nw *Network, R []int) (Tree, Assignment) {
	terms := append([]int{nw.Source()}, R...)
	st := steiner.KMB(nw.CompleteGraph(), terms)
	t := TreeFromUndirectedEdges(nw.N(), st.Edges, nw.Source())
	t = PruneTree(t, R)
	return t, nw.AssignmentForTree(t)
}

// MaxExactStations bounds the instance size accepted by ExactMEMT; the
// state space is 2^n.
const MaxExactStations = 20

// ExactMEMT computes a minimum-energy multicast assignment exactly by
// running Dijkstra over subsets of covered stations: a state is the set of
// stations already reached, and a transition raises one covered station's
// power to one of its distinct edge costs, paying that power. Every
// optimal assignment decomposes into such a transition sequence (ordering
// the transmitters of its multicast tree in BFS order), and conversely any
// sequence induces a feasible assignment of no larger total power, so the
// minimum over sequences is exactly C*(R).
//
// Panics if n > MaxExactStations.
func ExactMEMT(nw *Network, R []int) (float64, Assignment) {
	n := nw.N()
	if n > MaxExactStations {
		panic(fmt.Sprintf("wireless: ExactMEMT limited to %d stations, got %d", MaxExactStations, n))
	}
	target := 0
	for _, r := range R {
		target |= 1 << r
	}
	target |= 1 << nw.Source()
	if target == 1<<nw.Source() {
		return 0, make(Assignment, n)
	}
	// Per-station sorted power levels and cumulative coverage masks.
	type level struct {
		power float64
		cover int
	}
	levels := make([][]level, n)
	for i := 0; i < n; i++ {
		idx := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return nw.C(i, idx[a]) < nw.C(i, idx[b]) })
		mask := 0
		var ls []level
		for _, j := range idx {
			mask |= 1 << j
			p := nw.C(i, j)
			if len(ls) > 0 && ls[len(ls)-1].power == p {
				ls[len(ls)-1].cover = mask
			} else {
				ls = append(ls, level{power: p, cover: mask})
			}
		}
		levels[i] = ls
	}
	size := 1 << n
	dist := make([]float64, size)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	type pred struct {
		state, station, lvl int
	}
	preds := make([]pred, size)
	start := 1 << nw.Source()
	dist[start] = 0
	h := graph.NewIndexHeap(size)
	h.Push(start, 0)
	visited := make([]bool, size)
	goal := -1
	for h.Len() > 0 {
		s, d := h.Pop()
		if visited[s] {
			continue
		}
		visited[s] = true
		if s&target == target {
			goal = s
			break
		}
		for i := 0; i < n; i++ {
			if s&(1<<i) == 0 {
				continue
			}
			for li, lv := range levels[i] {
				ns := s | lv.cover
				if ns == s {
					continue
				}
				if nd := d + lv.power; nd < dist[ns] {
					dist[ns] = nd
					preds[ns] = pred{state: s, station: i, lvl: li}
					h.PushOrDecrease(ns, nd)
				}
			}
		}
	}
	if goal < 0 {
		return math.Inf(1), nil
	}
	a := make(Assignment, n)
	for s := goal; s != start; s = preds[s].state {
		p := preds[s]
		if pw := levels[p.station][p.lvl].power; pw > a[p.station] {
			a[p.station] = pw
		}
	}
	return dist[goal], a
}

// Alpha1Optimal returns an optimal multicast assignment for Euclidean
// networks with α = 1 (Lemma 3.1): the source transmits directly to the
// farthest receiver; relaying can never help because distances obey the
// triangle inequality.
func Alpha1Optimal(nw *Network, R []int) (float64, Assignment) {
	a := make(Assignment, nw.N())
	var p float64
	for _, r := range R {
		if c := nw.C(nw.Source(), r); c > p {
			p = c
		}
	}
	a[nw.Source()] = p
	return p, a
}

// LineOptimal returns an optimal multicast assignment for 1-dimensional
// Euclidean networks with any α ≥ 1, by Dijkstra over *interval states*:
// in one dimension a transmitter's coverage disk is an interval, so the
// set of reached stations is always an interval containing the source; a
// transition raises one reached station's power to one of its edge costs
// and extends the interval accordingly. This is exact (cross-validated
// against ExactMEMT) and runs in polynomial time, confirming the
// polynomial solvability claim of Lemma 3.1 for d = 1.
//
// Note: the constructive argument printed in Lemma 3.1 (fix the source
// power, then relay outward with consecutive-neighbor hops) is *not*
// always optimal — a relay on one side of the source can cover receivers
// on the other side with the same disk, which the chain canonical form
// pays for twice. LineChainCanonical implements the paper's construction
// so experiments can measure the gap; see EXPERIMENTS.md.
func LineOptimal(nw *Network, R []int) (float64, Assignment) {
	if nw.Dim() != 1 {
		panic("wireless: LineOptimal requires a 1-dimensional network")
	}
	n := nw.N()
	if len(R) == 0 {
		return 0, make(Assignment, n)
	}
	order := nw.SortByCoordinate()
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	coord := make([]float64, n)
	for r, v := range order {
		coord[r] = nw.Points()[v][0]
	}
	k := rank[nw.Source()]
	fR, lR := k, k
	for _, r := range R {
		if rank[r] < fR {
			fR = rank[r]
		}
		if rank[r] > lR {
			lR = rank[r]
		}
	}
	pc := nw.PowerModel()

	// Interval state [i, j] encoded as i*n + j.
	enc := func(i, j int) int { return i*n + j }
	dist := make([]float64, n*n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	type pred struct {
		state, station int
		power          float64
	}
	preds := make([]pred, n*n)
	start := enc(k, k)
	dist[start] = 0
	h := graph.NewIndexHeap(n * n)
	h.Push(start, 0)
	visited := make([]bool, n*n)
	goal := -1
	for h.Len() > 0 {
		s, d := h.Pop()
		if visited[s] {
			continue
		}
		visited[s] = true
		i, j := s/n, s%n
		if i <= fR && j >= lR {
			goal = s
			break
		}
		for t := i; t <= j; t++ {
			st := order[t]
			for u := 0; u < n; u++ {
				if u >= i && u <= j {
					continue
				}
				p := nw.C(st, order[u])
				rg := pc.Range(p) + costEps
				// Coverage interval of station st's disk, by binary search
				// over the sorted coordinates.
				lo := sort.SearchFloat64s(coord, coord[t]-rg)
				hi := sort.SearchFloat64s(coord, coord[t]+rg) - 1
				ni, nj := i, j
				if lo < ni {
					ni = lo
				}
				if hi > nj {
					nj = hi
				}
				ns := enc(ni, nj)
				if ns == s {
					continue
				}
				if nd := d + p; nd < dist[ns] {
					dist[ns] = nd
					preds[ns] = pred{state: s, station: st, power: p}
					h.PushOrDecrease(ns, nd)
				}
			}
		}
	}
	if goal < 0 {
		return math.Inf(1), nil
	}
	a := make(Assignment, n)
	for s := goal; s != start; s = preds[s].state {
		p := preds[s]
		if p.power > a[p.station] {
			a[p.station] = p.power
		}
	}
	return dist[goal], a
}

// LineChainCanonical implements the Lemma 3.1 construction for d = 1
// verbatim: try each of the ≤ n−1 powers for the source; for each, reach
// the rest of the target interval by consecutive-neighbor relay chains.
// It is an upper bound on C*(R) that the paper claims is optimal; the E8
// experiment measures the (small, occasionally nonzero) gap to LineOptimal.
func LineChainCanonical(nw *Network, R []int) (float64, Assignment) {
	if nw.Dim() != 1 {
		panic("wireless: LineChainCanonical requires a 1-dimensional network")
	}
	n := nw.N()
	if len(R) == 0 {
		return 0, make(Assignment, n)
	}
	order := nw.SortByCoordinate()
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	k := rank[nw.Source()]
	fR, lR := k, k
	for _, r := range R {
		if rank[r] < fR {
			fR = rank[r]
		}
		if rank[r] > lR {
			lR = rank[r]
		}
	}
	// gap[r] = cost between consecutive stations at ranks r and r+1;
	// prefix sums for O(1) chain costs.
	gap := make([]float64, n-1)
	pre := make([]float64, n)
	for r := 0; r+1 < n; r++ {
		gap[r] = nw.C(order[r], order[r+1])
		pre[r+1] = pre[r] + gap[r]
	}
	chain := func(lo, hi int) float64 { return pre[hi] - pre[lo] } // Σ gap[lo..hi−1]

	best := math.Inf(1)
	bestJ := -1
	for j := 0; j < n; j++ {
		if order[j] == nw.Source() {
			continue
		}
		p := nw.C(nw.Source(), order[j])
		// Direct coverage interval [a, b] around the source.
		a := k
		for a > 0 && nw.C(nw.Source(), order[a-1]) <= p+costEps {
			a--
		}
		b := k
		for b+1 < n && nw.C(nw.Source(), order[b+1]) <= p+costEps {
			b++
		}
		if fR < a && a == k {
			continue // cannot start a leftward chain
		}
		if lR > b && b == k {
			continue // cannot start a rightward chain
		}
		total := p
		if fR < a {
			total += chain(fR, a)
		}
		if lR > b {
			total += chain(b, lR)
		}
		if total < best {
			best = total
			bestJ = j
		}
	}
	if bestJ < 0 {
		return math.Inf(1), nil
	}
	// Rebuild the winning assignment.
	a := make(Assignment, n)
	p := nw.C(nw.Source(), order[bestJ])
	a[nw.Source()] = p
	lo := k
	for lo > 0 && nw.C(nw.Source(), order[lo-1]) <= p+costEps {
		lo--
	}
	hi := k
	for hi+1 < n && nw.C(nw.Source(), order[hi+1]) <= p+costEps {
		hi++
	}
	for r := lo - 1; r >= fR; r-- { // station at rank r+1 relays to r
		if gap[r] > a[order[r+1]] {
			a[order[r+1]] = gap[r]
		}
	}
	for r := hi; r < lR; r++ { // station at rank r relays to r+1
		if gap[r] > a[order[r]] {
			a[order[r]] = gap[r]
		}
	}
	return best, a
}

// OptimalMulticastCost returns C*(R) using the best available exact
// method: the closed forms for α = 1 and d = 1 on Euclidean networks, or
// ExactMEMT for small abstract networks. It is the reference oracle the
// experiments measure β-BB ratios against.
func OptimalMulticastCost(nw *Network, R []int) float64 {
	if len(R) == 0 {
		return 0
	}
	if nw.IsEuclidean() && nw.PowerModel().Alpha == 1 {
		c, _ := Alpha1Optimal(nw, R)
		return c
	}
	if nw.Dim() == 1 {
		c, _ := LineOptimal(nw, R)
		return c
	}
	c, _ := ExactMEMT(nw, R)
	return c
}
