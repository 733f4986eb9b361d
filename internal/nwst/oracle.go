package nwst

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"wmcs/internal/engine"
)

// This file is the spider oracles (DESIGN.md §14). Both are center
// scans: every live vertex is scored against read-only state (graph,
// weights, terminal marks, the distance rows), and the winner is picked
// by a deterministic fold. The center range is cut into fixed
// contiguous slices — a function of the vertex count only, never of the
// pool width — each scanned with one lane of State-owned scratch; the
// slice winners are then folded in slice order under the acceptance
// rule ratio < best − 1e-15 (the first winner is kept on near-ties).
// Width 1 runs the slices in order on lane 0; width N lets the pool's
// workers claim them. The same slices produce the same winners either
// way, so the spider is a function of the state alone.
//
// A scan records only arithmetic — each slice's best (center, step,
// cost, paying, ratio) — and the winner's node and terminal lists are
// built once after the fold, into fresh slices the caller owns: a
// TrajectoryMemo keeps returned spiders for replay, so they must never
// alias State buffers.
//
// A branch-oracle call sweeps each contracted graph once per state. On
// a pooled State that has contracted nothing yet its distance rows are
// the pool's table of uncontracted rows (hostRows, DESIGN.md §11.2),
// filled by the pool's first such call. Off the table it reads the
// state's own rows, and sweeps them only when the state's contraction
// sequence differs from the one they were last swept for: an
// exhaustive sweep reads only the graph, the weights and the alive
// marks, and Shrink makes all three a function of that sequence.

// oracleSliceCap bounds the number of center slices: min(n, 32) slices
// keeps the fold trivially cheap while feeding any realistic pool.
const oracleSliceCap = 32

// oracleTables is the oracle state a State owns beside its lanes. The
// rows and hub pairs are written by exactly one slice task per center
// and read by all of them afterwards; the rest is per-call input,
// loaded serially before any lane runs.
type oracleTables struct {
	// dists[v] and parents[v] are the node distances and shortest-path
	// parents from center v that the current call reads. On a pooled
	// state that has contracted nothing (fromHost) they alias the pool's
	// table; otherwise they are ownDists and ownParents, which only
	// branch-oracle calls write (a Klein–Ravi call off the table sweeps
	// into its lane's buffers instead). No sweep ever writes through an
	// alias of the table.
	dists      [][]float64
	parents    [][]int32
	ownDists   [][]float64
	ownParents [][]int32
	// ownSeq is the contraction sequence (State.seq) the own rows were
	// last swept for, and ownSwept reports that they were swept at all.
	// Reset keeps both.
	ownSeq   []int
	ownSwept bool
	// host is the table of the pool the state came from (nil outside a
	// pool), and fromHost reports that the current call reads it.
	// reused reports that the current branch call reads own rows swept
	// by an earlier call for an equal sequence, and sweeps nothing.
	host     *hostRows
	fromHost bool
	reused   bool
	// hubT1[u], hubT2[u] are hub u's two nearest paying terminals (−1
	// when it has fewer than two in reach), for the branch oracle, and
	// rank[t] is paying terminal t's index in paying.
	hubT1, hubT2 []int
	rank         []int
	// hubs is the branch call's hub table: every live hub with two
	// paying terminals in reach, in id order. It is written serially
	// between the sweep and leg passes and only read after.
	hubs []hubRow
	// lanes[0] is &State.sc; more are added the first time a pool
	// wider than 1 scans.
	lanes []*scratch
	// The current call: live paying terminals in id order, the clamped
	// cover requirement, which oracle runs, and the slice winners.
	paying   []int
	minCover int
	branch   bool
	krBest   []sliceBest
	brBest   []sliceBest
}

// sliceBest is the arithmetic of a slice's winning candidate: its center
// and how far the center's scan had gone (Klein–Ravi: the prefix length;
// branch: the number of greedy picks). center < 0 means no candidate.
type sliceBest struct {
	center, step, paying int
	cost, ratio          float64
	branch               bool
}

var noSpider = sliceBest{center: -1, ratio: math.Inf(1)}

// hostRows is a StatePool's table of uncontracted rows: the exhaustive
// distance row and parent row of every vertex of the host graph. A
// sweep on a state that has contracted nothing depends only on the host
// graph and weights, never on the terminals, so these rows are exactly
// what each pooled state's first oracle call would sweep, and one table
// serves every attempt of every query. The pool's first such call fills
// it, once, on its own slices and lanes; after that it is read-only.
// Each kind of row is cut from one flat n×n array.
type hostRows struct {
	once    sync.Once
	dists   [][]float64
	parents [][]int32
}

// fillHost fills the pool's table on the calling state's fixed slices
// and lanes, so a wide pool fills it in parallel, and publishes it only
// once every row is complete. The state must have contracted nothing,
// and begin must have sized its slices.
func (s *State) fillHost(pool *engine.Pool) {
	n := s.n0
	dist, par := make([]float64, n*n), make([]int32, n*n)
	s.dists, s.parents = make([][]float64, n), make([][]int32, n)
	// Each row is capped at its own n entries, so no append or fit on a
	// row can reach into the next.
	for v := 0; v < n; v++ {
		s.dists[v] = dist[v*n : (v+1)*n : (v+1)*n]
		s.parents[v] = par[v*n : (v+1)*n : (v+1)*n]
	}
	s.scan(pool, (*State).fillSlice)
	s.host.dists, s.host.parents = s.dists, s.parents
}

// fillSlice sweeps the rows of slice b's vertices into the table being
// filled.
func (s *State) fillSlice(sc *scratch, b int) {
	lo, hi := s.slice(b)
	for v := lo; v < hi; v++ {
		s.dijkstra(sc, v, s.dists[v], s.parents[v], -1)
	}
}

// KleinRaviOracle finds a minimum-ratio spider in the style of Klein–Ravi
// [33]: for every live center, take the minCover, minCover+1, … nearest
// paying terminals by node-weighted distance and keep the prefix whose
// exact union cost per covered paying terminal is smallest. It scans at
// width 1.
func KleinRaviOracle(s *State, minCover int) (Spider, bool) {
	if !s.begin(minCover, false, nil) {
		return Spider{Ratio: math.Inf(1)}, false
	}
	s.scan(nil, (*State).sweepSlice)
	return s.materialize(fold(noSpider, s.krBest))
}

// BranchSpiderOracle extends KleinRaviOracle with Guha–Khuller style
// branch legs: a leg may route to an intermediate hub and fork to two
// terminals there, which is what improves the greedy from 2 ln k towards
// 1.5 ln k. Per center it greedily combines single and forked legs by
// cost per newly covered terminal, keeping the best exact-ratio prefix;
// the Klein–Ravi candidates compete in the same fold. It scans at
// width 1.
func BranchSpiderOracle(s *State, minCover int) (Spider, bool) {
	return s.branchSpider(minCover, nil)
}

// BranchSpiderOracleOn is BranchSpiderOracle with its slices scanned on
// the pool's workers; it returns the identical spider at every width. A
// State must not be used by anything else during a call (the
// mechanism's call discipline already guarantees this).
func BranchSpiderOracleOn(pool *engine.Pool) Oracle {
	return func(s *State, minCover int) (Spider, bool) {
		return s.branchSpider(minCover, pool)
	}
}

func (s *State) branchSpider(minCover int, pool *engine.Pool) (Spider, bool) {
	if !s.branchPasses(minCover, pool) {
		return Spider{Ratio: math.Inf(1)}, false
	}
	return s.materialize(fold(fold(noSpider, s.krBest), s.brBest))
}

// branchPasses runs a branch call's scans. Every hub row must be
// complete before any center's leg greedy reads it, hence two passes,
// with the hub table listed between them. It reports false when no
// paying terminal is live.
func (s *State) branchPasses(minCover int, pool *engine.Pool) bool {
	if !s.begin(minCover, true, pool) {
		return false
	}
	s.scan(pool, (*State).sweepSlice)
	s.listHubs()
	s.scan(pool, (*State).branchSlice)
	return true
}

// hubRow is one hub of a branch call's hub table: hub u, its two
// nearest paying terminals t1 and t2, their distances d1 and d2 from u,
// and the pair's slot in the pair table.
type hubRow struct {
	d1, d2  float64
	u, slot int32
	t1, t2  int32
}

// listHubs lists the hub table from the hubs the sweep pass found, so
// each center's leg greedy reads two floats per hub instead of two far
// rows.
func (s *State) listHubs() {
	hubs := s.hubs[:0]
	for u := 0; u < s.g.N(); u++ {
		if !s.alive[u] || s.hubT2[u] < 0 {
			continue
		}
		t1, t2 := s.hubT1[u], s.hubT2[u]
		hubs = append(hubs, hubRow{
			d1: s.dists[u][t1], d2: s.dists[u][t2],
			u: int32(u), slot: int32(s.pairSlot(t1, t2)),
			t1: int32(t1), t2: int32(t2),
		})
	}
	s.hubs = hubs
}

// begin loads one call's inputs, sizes the tables and lane 0 to the
// current graph and points dists and parents at the rows the call
// reads, filling the pool's table if this is its first call on a state
// that has contracted nothing. A branch call off the table reuses the
// own rows when the state's sequence equals the one they were swept
// for, and otherwise records its sequence for the sweep to come. It
// reports false when no paying terminal is live.
func (s *State) begin(minCover int, branch bool, pool *engine.Pool) bool {
	n := s.g.N()
	s.paying = s.paying[:0]
	for v := 0; v < n; v++ {
		if s.alive[v] && s.isTerm[v] && !s.free[v] {
			s.paying = append(s.paying, v)
		}
	}
	if len(s.paying) == 0 {
		return false
	}
	s.minCover = min(minCover, len(s.paying))
	s.branch = branch
	ns := min(n, oracleSliceCap)
	s.krBest = fit(s.krBest, ns)
	s.brBest = fit(s.brBest, ns)
	s.sc.grow(n)
	s.fromHost = s.host != nil && n == s.n0
	s.reused = false
	switch {
	case s.fromHost:
		s.host.once.Do(func() { s.fillHost(pool) })
		s.dists, s.parents = s.host.dists, s.host.parents
	case branch:
		s.reused = s.ownSwept && slices.Equal(s.seq, s.ownSeq)
		if !s.reused {
			s.growOwnRows(n)
			s.ownSeq = append(s.ownSeq[:0], s.seq...)
			s.ownSwept = true
		}
		s.dists, s.parents = s.ownDists, s.ownParents
	default:
		s.dists, s.parents = s.ownDists, s.ownParents
	}
	if branch {
		s.hubT1 = fit(s.hubT1, n)
		s.hubT2 = fit(s.hubT2, n)
		s.rank = fit(s.rank, n)
		for i, t := range s.paying {
			s.rank[t] = i
		}
	}
	return true
}

// growOwnRows sizes the state's own row of every live vertex to an
// n-vertex graph.
func (s *State) growOwnRows(n int) {
	if len(s.ownDists) < n {
		s.ownDists = append(s.ownDists, make([][]float64, n-len(s.ownDists))...)
		s.ownParents = append(s.ownParents, make([][]int32, n-len(s.ownParents))...)
	}
	for v := 0; v < n; v++ {
		if s.alive[v] {
			s.ownDists[v] = fit(s.ownDists[v], n)
			s.ownParents[v] = fit(s.ownParents[v], n)
		}
	}
}

// grow sizes a lane's per-vertex buffers to an n-vertex graph.
func (sc *scratch) grow(n int) {
	sc.dist = fit(sc.dist, n)
	sc.par = fit(sc.par, n)
	sc.inUnion = fit(sc.inUnion, n)
	sc.covered = fit(sc.covered, n)
}

// sweep returns center v's distance and parent row. Off the pool's
// table it runs the center's Dijkstra into the row its scan reads: for
// the branch oracle, whose leg greedy reads every hub's row, the
// state's own row, exhaustively; for Klein–Ravi, which reads only the
// row of the center it is scoring, the lane's own buffers, stopped at
// the last paying terminal. On the table, or on own rows swept for the
// same sequence, it sweeps nothing: those rows are the exhaustive rows,
// and the stopped sweep agrees with them on every entry Klein–Ravi
// reads (see dijkstra).
func (s *State) sweep(sc *scratch, v int) ([]float64, []int32) {
	switch {
	case s.fromHost || s.reused:
		return s.dists[v], s.parents[v]
	case s.branch:
		s.dijkstra(sc, v, s.dists[v], s.parents[v], -1)
		return s.dists[v], s.parents[v]
	}
	s.dijkstra(sc, v, sc.dist, sc.par, len(s.paying))
	return sc.dist, sc.par
}

// scan runs one pass of slice tasks. At width 1 lane 0 takes the slices
// in order; at width N each worker holds one lane and claims slices from
// a shared counter until none remain. A slice's result depends only on
// the slice, never on the lane or the order slices were claimed in.
func (s *State) scan(pool *engine.Pool, task func(s *State, sc *scratch, b int)) {
	ns := len(s.krBest)
	w := min(pool.Workers(), ns)
	if w <= 1 {
		for b := 0; b < ns; b++ {
			task(s, &s.sc, b)
		}
		return
	}
	n := s.g.N()
	if len(s.lanes) == 0 {
		s.lanes = append(s.lanes, &s.sc)
	}
	for len(s.lanes) < w {
		s.lanes = append(s.lanes, &scratch{})
	}
	for _, sc := range s.lanes[:w] {
		sc.grow(n)
	}
	var next atomic.Int64
	engine.Map(pool, w, func(i int) struct{} {
		for b := int(next.Add(1)) - 1; b < ns; b = int(next.Add(1)) - 1 {
			task(s, s.lanes[i], b)
		}
		return struct{}{}
	})
}

// slice returns slice b's center range [lo, hi).
func (s *State) slice(b int) (lo, hi int) {
	n, ns := s.g.N(), len(s.krBest)
	return b * n / ns, (b + 1) * n / ns
}

// sweepSlice sweeps the distance rows of slice b's centers and scores
// their Klein–Ravi prefixes; for the branch oracle it also records each
// center's two nearest paying terminals as a hub.
func (s *State) sweepSlice(sc *scratch, b int) {
	best := noSpider
	lo, hi := s.slice(b)
	for v := lo; v < hi; v++ {
		if !s.alive[v] {
			continue
		}
		dist, parent := s.sweep(sc, v)
		s.krCenter(sc, v, dist, parent, &best, 0)
		if s.branch {
			s.hubT1[v], s.hubT2[v] = s.nearestTwo(dist)
		}
	}
	s.krBest[b] = best
}

// branchSlice scores the leg greedy of slice b's centers.
func (s *State) branchSlice(sc *scratch, b int) {
	best := noSpider
	lo, hi := s.slice(b)
	for v := lo; v < hi; v++ {
		if s.alive[v] {
			s.branchCenter(sc, v, &best, 0)
		}
	}
	s.brBest[b] = best
}

// fold merges slice winners, in slice order, into best.
func fold(best sliceBest, slices []sliceBest) sliceBest {
	for _, r := range slices {
		if r.center >= 0 && r.ratio < best.ratio-1e-15 {
			best = r
		}
	}
	return best
}

// consider offers one candidate to a slice's running best.
func (s *State) consider(best *sliceBest, center, step int, cost float64, paying int, branch bool) {
	ratio := math.Inf(1)
	if paying > 0 {
		ratio = cost / float64(paying)
	}
	if paying >= s.minCover && ratio < best.ratio-1e-15 {
		*best = sliceBest{center: center, step: step, paying: paying, cost: cost, ratio: ratio, branch: branch}
	}
}

// krCenter runs center v's Klein–Ravi scan over its distance row: paying
// terminals sorted by (distance, id), legs unioned incrementally. Each
// leg extends the union of the legs before it in place — nodes appended
// center first, then each leg's path nodes not already present, with
// cost accumulated strictly left to right at append time — and every
// prefix of at least minCover legs is offered to best. With upto > 0 the
// scan instead stops after prefix upto and leaves that prefix's union,
// in insertion order, in sc.nodesBuf.
func (s *State) krCenter(sc *scratch, v int, dist []float64, parent []int32, best *sliceBest, upto int) {
	// The comparator is a total order (ties broken by id), so the sorted
	// sequence — and with it every downstream byte — does not depend on
	// the sort algorithm. sort.Sort on the pointer sorter avoids the
	// per-call closure and reflect.Swapper allocations of sort.Slice.
	terms := append(sc.sortBuf[:0], s.paying...)
	sc.sortBuf = terms
	sc.sorter = termDistSorter{terms: terms, dist: dist}
	sort.Sort(&sc.sorter)
	if math.IsInf(dist[terms[s.minCover-1]], 1) {
		return
	}
	sc.unionStart(v)
	cost, paying := s.tally(sc.nodesBuf, 0, 0)
	for j := 1; j <= len(terms); j++ {
		if math.IsInf(dist[terms[j-1]], 1) {
			break
		}
		k := len(sc.nodesBuf)
		sc.unionPath(parent, terms[j-1])
		cost, paying = s.tally(sc.nodesBuf[k:], cost, paying)
		if j == upto {
			break
		}
		if upto <= 0 && j >= s.minCover {
			s.consider(best, v, j, cost, paying, false)
		}
	}
	sc.unionEnd()
}

// nearestTwo returns the two nearest paying terminals on a distance row
// (−1 for each one missing), the first found kept on equal distances.
func (s *State) nearestTwo(dist []float64) (t1, t2 int) {
	t1, t2 = -1, -1
	for _, t := range s.paying {
		if math.IsInf(dist[t], 1) {
			continue
		}
		if t1 < 0 || dist[t] < dist[t1] {
			t1, t2 = t, t1
		} else if t2 < 0 || dist[t] < dist[t2] {
			t2 = t
		}
	}
	return t1, t2
}

// termDistSorter sorts terminal ids by (distance, id) — a total order,
// so the result is algorithm-independent.
type termDistSorter struct {
	terms []int
	dist  []float64
}

func (t *termDistSorter) Len() int { return len(t.terms) }
func (t *termDistSorter) Less(a, b int) bool {
	if t.dist[t.terms[a]] != t.dist[t.terms[b]] {
		return t.dist[t.terms[a]] < t.dist[t.terms[b]]
	}
	return t.terms[a] < t.terms[b]
}
func (t *termDistSorter) Swap(a, b int) {
	t.terms[a], t.terms[b] = t.terms[b], t.terms[a]
}

// legItem is a candidate spider leg: either a direct path to one terminal
// (hub < 0, t2 < 0) or a path to a hub that forks to the two terminals
// t1, t2.
type legItem struct {
	cost   float64
	hub    int32 // −1 for single legs, retiredLeg for a dominated fork
	t1, t2 int32 // covered terminals; t2 == −1 for single legs
}

// retiredLeg marks a forked leg that a later leg to the same pair
// dominates; branchCenter compacts such legs out before its greedy.
const retiredLeg = -2

// branchCenter runs center v's leg greedy: single legs to every
// reachable paying terminal and forked legs through every reachable
// hub of the hub table, picked by cost per newly covered terminal, the
// earliest item winning ties. A forked leg costs (dv[u] + d1) + d2:
// center→hub first, then both forks. Once minCover terminals are
// covered, every pick's union is offered to best. With upto > 0 the
// greedy instead stops after pick upto, leaving the chosen legs in
// sc.legEnds and sc.hubLegs.
//
// Forked legs to one unordered pair always cover the same number nu of
// new terminals, so the greedy picks at most one of them, and never one
// that a leg to its pair beats at both nu = 1 and nu = 2 under the
// pick's (cost/nu, item order) rule. Such legs are dropped, keeping the
// order of the rest, so the picks are the same. Legs arrive in item
// order, so a later leg is dropped if it costs at least as much as the
// pair's cheapest kept leg (halving is monotone). A later, cheaper leg
// retires that leg only if it is also cheaper after halving, which
// fails only for subnormal costs.
func (s *State) branchCenter(sc *scratch, v int, best *sliceBest, upto int) {
	dv := s.dists[v]
	items := sc.items[:0]
	for _, t := range s.paying {
		if !math.IsInf(dv[t], 1) {
			items = append(items, legItem{cost: dv[t], hub: -1, t1: int32(t), t2: -1})
		}
	}
	singles := len(items)
	pairs := sc.pairTable(len(s.paying))
	for _, h := range s.hubs {
		if int(h.u) == v || math.IsInf(dv[h.u], 1) {
			continue
		}
		cost := dv[h.u] + h.d1 + h.d2
		if j := pairs[h.slot]; j >= 0 {
			if cost >= items[j].cost {
				continue
			}
			if cost/2 < items[j].cost/2 {
				items[j].hub = retiredLeg
			}
		}
		pairs[h.slot] = int32(len(items))
		items = append(items, legItem{cost: cost, hub: h.u, t1: h.t1, t2: h.t2})
	}
	// Each pair's slot holds its last kept leg, so clearing the slots of
	// the kept legs leaves the table all −1.
	kept := items[:singles]
	for _, it := range items[singles:] {
		if it.hub != retiredLeg {
			pairs[s.pairSlot(int(it.t1), int(it.t2))] = -1
			kept = append(kept, it)
		}
	}
	items = kept
	sc.items = items
	covered := sc.covered
	for _, t := range s.paying {
		covered[t] = false
	}
	nCovered := 0
	sc.legEnds, sc.hubLegs = sc.legEnds[:0], sc.hubLegs[:0]
	for picks := 1; nCovered < len(s.paying); picks++ {
		bi, bc := -1, math.Inf(1)
		for i, it := range items {
			nu := 0
			if !covered[it.t1] {
				nu++
			}
			if it.t2 >= 0 && !covered[it.t2] {
				nu++
			}
			if nu == 0 {
				continue
			}
			if per := it.cost / float64(nu); per < bc {
				bi, bc = i, per
			}
		}
		if bi < 0 {
			break
		}
		it := items[bi]
		if !covered[it.t1] {
			covered[it.t1] = true
			nCovered++
		}
		if it.t2 >= 0 && !covered[it.t2] {
			covered[it.t2] = true
			nCovered++
		}
		if it.hub < 0 {
			sc.legEnds = append(sc.legEnds, int(it.t1))
		} else {
			sc.hubLegs = append(sc.hubLegs, it)
		}
		if picks == upto {
			break
		}
		if upto <= 0 && nCovered >= s.minCover {
			cost, paying := s.legUnion(sc, v)
			s.consider(best, v, picks, cost, paying, true)
		}
	}
}

// pairTable returns the lane's table of kept forked legs for k paying
// terminals, every slot −1: slot pairSlot(t1, t2) holds the item index
// of the pair's cheapest kept leg while branchCenter builds its items.
func (sc *scratch) pairTable(k int) []int32 {
	if len(sc.pairs) < k*k {
		sc.pairs = make([]int32, k*k)
		for i := range sc.pairs {
			sc.pairs[i] = -1
		}
	}
	return sc.pairs
}

// pairSlot is the pair table slot of the unordered paying-terminal pair
// {t1, t2}.
func (s *State) pairSlot(t1, t2 int) int {
	a, b := s.rank[t1], s.rank[t2]
	if a > b {
		a, b = b, a
	}
	return a*len(s.paying) + b
}

// legUnion unions center v's chosen legs (sc.legEnds, then sc.hubLegs
// as hub path and both forks) into sc.nodesBuf in insertion order and
// returns the union's exact cost, summed in that order, and its paying
// terminal count.
func (s *State) legUnion(sc *scratch, v int) (cost float64, paying int) {
	sc.unionStart(v)
	for _, e := range sc.legEnds {
		sc.unionPath(s.parents[v], e)
	}
	for _, hl := range sc.hubLegs {
		sc.unionPath(s.parents[v], int(hl.hub))
		sc.unionPath(s.parents[hl.hub], int(hl.t1))
		sc.unionPath(s.parents[hl.hub], int(hl.t2))
	}
	sc.unionEnd()
	return s.tally(sc.nodesBuf, 0, 0)
}

// unionStart starts a spider's node union at center v: sc.nodesBuf
// lists it in insertion order, and sc.inUnion marks its nodes until
// unionEnd.
func (sc *scratch) unionStart(v int) {
	sc.nodesBuf = append(sc.nodesBuf[:0], v)
	sc.inUnion[v] = true
}

// unionPath adds the nodes of the path to end on a parent row that the
// union lacks, in path order.
func (sc *scratch) unionPath(parent []int32, end int) {
	sc.pathBuf = appendPath(parent, end, sc.pathBuf[:0])
	for _, x := range sc.pathBuf {
		if !sc.inUnion[x] {
			sc.inUnion[x] = true
			sc.nodesBuf = append(sc.nodesBuf, x)
		}
	}
}

// unionEnd clears the union's marks; sc.nodesBuf keeps its nodes.
func (sc *scratch) unionEnd() {
	for _, x := range sc.nodesBuf {
		sc.inUnion[x] = false
	}
}

// tally adds the weights of nodes to cost, left to right, and counts
// the paying terminals among them.
func (s *State) tally(nodes []int, cost float64, paying int) (float64, int) {
	for _, x := range nodes {
		cost += s.w[x]
		if s.isTerm[x] && !s.free[x] {
			paying++
		}
	}
	return cost, paying
}

// materialize builds the folded winner's spider on lane 0 by re-running
// its center's scan up to the recorded step — for a Klein–Ravi winner
// whose row lived in a lane buffer, the center's sweep too. The
// arithmetic was already recorded; only the node and terminal lists are
// new, allocated here and owned by the caller.
func (s *State) materialize(best sliceBest) (Spider, bool) {
	if best.center < 0 {
		return Spider{Ratio: math.Inf(1)}, false
	}
	sc, v := &s.sc, best.center
	switch {
	case best.branch:
		s.branchCenter(sc, v, nil, best.step)
		s.legUnion(sc, v)
	case s.branch:
		s.krCenter(sc, v, s.dists[v], s.parents[v], nil, best.step)
	default:
		dist, parent := s.sweep(sc, v)
		s.krCenter(sc, v, dist, parent, nil, best.step)
	}
	nodes := append([]int(nil), sc.nodesBuf...)
	sort.Ints(nodes)
	nt := 0
	for _, x := range nodes {
		if s.isTerm[x] {
			nt++
		}
	}
	terms := make([]int, 0, nt)
	for _, x := range nodes {
		if s.isTerm[x] {
			terms = append(terms, x)
		}
	}
	return Spider{Center: v, Nodes: nodes, Terms: terms, Paying: best.paying, Cost: best.cost, Ratio: best.ratio}, true
}
