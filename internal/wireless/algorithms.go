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
// running the power search over subsets of covered stations: a state is
// the set of stations already reached, and a transition raises one
// covered station's power to one of its distinct edge costs, paying that
// power. Every optimal assignment decomposes into such a transition
// sequence (ordering the transmitters of its multicast tree in BFS
// order), and conversely any sequence induces a feasible assignment of no
// larger total power, so the minimum over sequences is exactly C*(R).
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
	return powerSearch(1<<n, 1<<nw.Source(), func(s int, r raise) bool {
		if s&target == target {
			return true
		}
		for i := 0; i < n; i++ {
			if s&(1<<i) == 0 {
				continue
			}
			for _, lv := range levels[i] {
				r.to(s|lv.cover, i, lv.power)
			}
		}
		return false
	}).assignment(n)
}

// powerSearch is the Dijkstra behind every exact multicast solver
// (ExactMEMT and the line searches of LineLayout): a state 0..size−1 is
// a set of reached stations, and a transition raises one reached
// station's power to one of its costs, paying that power. Starting from
// start, it pops states until one covers the target. expand reports
// whether a popped state does and, when it does not, offers each
// transition out of it through r.to.
//
// No state pops twice: powers are nonnegative, so a later pop's key plus
// any power is no less than the distance an earlier pop holds, and the
// nd < dist test never pushes a popped state again.
func powerSearch(size, start int, expand func(s int, r raise) (covers bool)) powerRun {
	run := powerRun{dist: make([]float64, size), steps: make([]powerStep, size), start: start, goal: -1}
	for i := range run.dist {
		run.dist[i] = math.Inf(1)
	}
	run.dist[start] = 0
	h := graph.NewIndexHeap(size)
	h.Push(start, 0)
	for h.Len() > 0 {
		s, d := h.Pop()
		if expand(s, raise{from: s, d: d, dist: run.dist, steps: run.steps, h: h}) {
			run.goal = s
			break
		}
	}
	return run
}

// powerRun is a power search's result: every state's distance, the step
// that set it, and the first popped state that covers the target (−1
// when none does). Distances of states popped before the goal are final;
// the others are no less than the goal's.
type powerRun struct {
	dist        []float64
	steps       []powerStep
	start, goal int
}

// powerStep is the transition that set a state's distance: the state it
// left and the power it gave one station.
type powerStep struct {
	from, station int
	power         float64
}

// raise offers the transitions out of one popped state to the search.
// expand receives it by value, so it stays on the stack: what it changes
// sits behind its slices and heap, and offering a transition allocates
// nothing.
type raise struct {
	from  int
	d     float64
	dist  []float64
	steps []powerStep
	h     *graph.IndexHeap
}

// to offers the transition that gives station power and reaches state
// ns. It is small enough to inline, so a transition that lowers nothing
// costs no call.
func (r *raise) to(ns, station int, power float64) {
	if nd := r.d + power; nd < r.dist[ns] {
		r.lower(ns, station, power, nd)
	}
}

// lower records that the transition to ns lowers its distance to nd.
func (r *raise) lower(ns, station int, power, nd float64) {
	r.dist[ns] = nd
	r.steps[ns] = powerStep{from: r.from, station: station, power: power}
	r.h.PushOrDecrease(ns, nd)
}

// assignment returns the goal's distance and the assignment that
// reaches it over n stations, walking the steps from the goal back to
// the start: each station transmits at the largest power a step gave
// it. With no goal it returns +Inf and nil.
func (run powerRun) assignment(n int) (float64, Assignment) {
	if run.goal < 0 {
		return math.Inf(1), nil
	}
	a := make(Assignment, n)
	for s := run.goal; s != run.start; s = run.steps[s].from {
		st := run.steps[s]
		if st.power > a[st.station] {
			a[st.station] = st.power
		}
	}
	return run.dist[run.goal], a
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

// LineLayout is a 1-dimensional network's stations in coordinate order,
// the frame of every computation on the line. The line searches run on
// interval states: in one dimension a transmitter's coverage disk is an
// interval, so the set of reached stations is always an interval of
// ranks [i, j] containing the source's, encoded i*n + j.
type LineLayout struct {
	Order []int     // station ids by ascending coordinate
	Rank  []int     // Rank[v] is station v's index in Order
	K     int       // the source's rank
	coord []float64 // coord[r] is the coordinate of station Order[r]
	nw    *Network
}

// NewLineLayout lays out nw's stations along its line. It panics unless
// nw is Euclidean with d = 1.
func NewLineLayout(nw *Network) LineLayout {
	order := nw.SortByCoordinate()
	lay := LineLayout{Order: order, Rank: make([]int, len(order)), coord: make([]float64, len(order)), nw: nw}
	for r, v := range order {
		lay.Rank[v] = r
		lay.coord[r] = nw.points[v][0]
	}
	lay.K = lay.Rank[nw.source]
	return lay
}

// Span returns the extreme ranks f ≤ K ≤ l of R ∪ {source}.
func (lay LineLayout) Span(R []int) (f, l int) {
	f, l = lay.K, lay.K
	for _, r := range R {
		f = min(f, lay.Rank[r])
		l = max(l, lay.Rank[r])
	}
	return f, l
}

// search runs the power search over interval states from [K, K] until
// one covers ranks f..l. A transition raises the station of a rank t in
// [i, j] to its cost toward a station outside [i, j] and extends the
// interval over that disk's coverage, found by binary search on coord.
func (lay LineLayout) search(f, l int) powerRun {
	n, nw := len(lay.Order), lay.nw
	order, coord, pc := lay.Order, lay.coord, nw.PowerModel()
	return powerSearch(n*n, lay.K*n+lay.K, func(s int, r raise) bool {
		i, j := s/n, s%n
		if i <= f && j >= l {
			return true
		}
		for t := i; t <= j; t++ {
			st := order[t]
			for u := 0; u < n; u++ {
				if u >= i && u <= j {
					continue
				}
				p := nw.C(st, order[u])
				rg := pc.Range(p) + costEps
				lo := sort.SearchFloat64s(coord, coord[t]-rg)
				hi := sort.SearchFloat64s(coord, coord[t]+rg) - 1
				r.to(min(lo, i)*n+max(hi, j), st, p)
			}
		}
		return false
	})
}

// IntervalCosts returns the optimal cost of every rank interval:
// best[f*n+l] is C* of serving the stations of ranks f..l together with
// the source, for f ≤ K ≤ l. It runs the interval search until the whole
// line is reached and folds its distances into quadrant minima:
// best[f*n+l] is the least distance of any state [i, j] with i ≤ f and
// j ≥ l. Stopping there changes no entry: every state popped earlier is
// final, every other one is no nearer than the whole line, and the whole
// line lies in every quadrant.
func (lay LineLayout) IntervalCosts() []float64 {
	n := len(lay.Order)
	best := lay.search(0, n-1).dist
	// One sweep, f ascending and l descending: both neighbours
	// best[f−1][l] and best[f][l+1] are already quadrant minima.
	for f := 0; f < n; f++ {
		for l := n - 1; l >= 0; l-- {
			b := best[f*n+l]
			if f > 0 {
				b = min(b, best[(f-1)*n+l])
			}
			if l+1 < n {
				b = min(b, best[f*n+l+1])
			}
			best[f*n+l] = b
		}
	}
	return best
}

// LineOptimal returns an optimal multicast assignment for 1-dimensional
// Euclidean networks with any α ≥ 1: the interval search of LineLayout,
// stopped at the first state that covers the extreme ranks of R ∪ {s}.
// This is exact (cross-validated against ExactMEMT) and runs in
// polynomial time, confirming the polynomial solvability claim of
// Lemma 3.1 for d = 1.
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
	lay := NewLineLayout(nw)
	return lay.search(lay.Span(R)).assignment(nw.N())
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
	lay := NewLineLayout(nw)
	order, k := lay.Order, lay.K
	fR, lR := lay.Span(R)
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
