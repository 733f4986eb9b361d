// Package nwst implements the node-weighted Steiner tree (NWST) machinery
// of §2.2 of the paper: node-weighted shortest paths, minimum-ratio spider
// oracles in the style of Klein–Ravi [33] and Guha–Khuller [28], the
// shrink/contract greedy, and an exact solver for small instances.
//
// An NWST instance is an undirected graph with nonnegative *node* weights
// and a set of terminals; the goal is a minimum-weight connected subgraph
// containing all terminals (edge weights play no role). The §2.2.2
// mechanism drives the same oracle/shrink machinery but interleaves the
// utility checks; package nwstmech builds on the State type exported here.
package nwst

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wmcs/internal/graph"
)

// Instance is a node-weighted Steiner tree instance.
type Instance struct {
	G         *graph.Graph // host graph; edge weights are ignored
	Weights   []float64    // node weights, len == G.N()
	Terminals []int        // required terminals
	// Free marks terminals that must be connected but never pay and are
	// not counted in spider ratios (the wireless reduction's source
	// terminal). len(Free) == len(Terminals) or nil for "all paying".
	Free []bool
	// Chains, when non-nil, describes G as a MEMT→NWST reduction graph
	// (chains.go), and a State sweeps through it. It never changes a
	// distance, a parent or a spider, only how much work a sweep does.
	Chains *Chains
}

// Validate panics on malformed instances; used by constructors of
// dependent packages.
func (in Instance) Validate() {
	if len(in.Weights) != in.G.N() {
		panic(fmt.Sprintf("nwst: %d weights for %d nodes", len(in.Weights), in.G.N()))
	}
	if in.Free != nil && len(in.Free) != len(in.Terminals) {
		panic("nwst: Free length mismatch")
	}
	for _, w := range in.Weights {
		if w < 0 {
			panic("nwst: negative node weight")
		}
	}
}

// Spider is a candidate structure chosen by a ratio oracle: a center and a
// union of node-weighted paths ("legs") covering a set of terminals. Cost
// is the exact total weight of the node union; Ratio is Cost divided by
// the number of covered *paying* terminals.
type Spider struct {
	Center int
	Nodes  []int // node union, live ids, includes Center and terminals
	Terms  []int // covered live terminals (paying and free)
	Paying int   // number of covered paying terminals
	Cost   float64
	Ratio  float64
}

// Oracle finds a low-ratio spider covering at least minCover paying
// terminals, returning ok=false if none exists.
type Oracle func(s *State, minCover int) (Spider, bool)

// State is the mutable contracted instance shared by the greedy algorithm
// and the §2.2.2 mechanism. Contracting a spider kills its nodes and adds
// a fresh zero-weight terminal adjacent to all their live neighbors; the
// new terminal remembers the original terminals it contains
// (the paper's N+_t).
//
// A State owns a private copy of the host graph plus the tables and
// scratch lanes of the spider oracles (oracle.go), so it can be Reset and
// reused across queries on the same host instance without reallocating
// (see StatePool). A State is not safe for concurrent use; an oracle
// call on a pool wider than 1 runs its own lanes concurrently, but only
// inside the call.
type State struct {
	n0     int // number of original vertices
	g      *graph.Graph
	base   graph.Snapshot // host extent; Reset rewinds contractions to it
	w      []float64
	alive  []bool
	isTerm []bool
	free   []bool
	cons   [][]int // constituents: original terminal ids inside vertex
	// consBase backs the singleton constituent slices of original paying
	// terminals: cons[t] == consBase[t : t+1], so Reset re-points slices
	// instead of reallocating them.
	consBase []int
	// seq is the contraction sequence since the last Reset: each Shrink
	// appends its spider's Nodes, in order, and a −1 separator. The
	// graph, the weights and the alive marks are a function of it
	// (oracle.go).
	seq []int
	// chains describes the host graph when it is a reduction graph of
	// g.N() == n0 vertices (chains.go); nil otherwise.
	chains *Chains
	// sc is lane 0: the buffers of PathBetween, Shrink, winner assembly
	// and every width-1 oracle scan.
	sc scratch
	ws *Workspace
	oracleTables
}

// scratch is one lane of reusable buffers. Everything here is sized
// lazily to the current (contracted) graph and carries no information
// across uses, so which lane scans which slice never affects a byte.
type scratch struct {
	heap sweepHeap
	// per-sweep chain marks, by station (chains.go): lo is the lowest
	// level an input has relaxed, and every input before ptr in the
	// station's order is reached or dead.
	lo, ptr []int32
	// single-source node-distance buffers (Klein–Ravi scans,
	// PathBetween).
	dist []float64
	par  []int32
	// spider assembly.
	inUnion  []bool
	nodesBuf []int
	pathBuf  []int
	sortBuf  []int
	// branch-oracle greedy.
	items   []legItem
	legEnds []int
	hubLegs []legItem
	covered []bool
	pairs   []int32
	sorter  termDistSorter
	// Shrink.
	inSpider []bool
	seen     []bool
	touched  []int
}

// roomFor is the capacity a per-vertex buffer is (re)allocated with for
// an n-vertex graph: the headroom absorbs the vertices Shrink mints, so
// a contraction run regrows its buffers rarely instead of once per step.
func roomFor(n int) int { return n + n/8 + 8 }

// fit returns buf resized to n entries, reallocating with roomFor(n)
// capacity when it is too small.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, roomFor(n))
	}
	return buf[:n]
}

// NewState initializes the contraction state from an instance.
func NewState(in Instance) *State {
	in.Validate()
	n := in.G.N()
	s := &State{
		n0:       n,
		g:        in.G.Clone(),
		w:        append([]float64(nil), in.Weights...),
		alive:    make([]bool, n),
		isTerm:   make([]bool, n),
		free:     make([]bool, n),
		cons:     make([][]int, n),
		consBase: make([]int, n),
	}
	s.base = s.g.Snapshot()
	if c := in.Chains; c != nil && c.n == n {
		s.chains = c
	}
	for i := range s.consBase {
		s.consBase[i] = i
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	s.setTerminals(in.Terminals, in.Free)
	return s
}

// setTerminals marks the terminal set on a state whose alive/isTerm/free/
// cons arrays are already cleared to the "no terminals" baseline.
func (s *State) setTerminals(terminals []int, free []bool) {
	for ti, t := range terminals {
		s.isTerm[t] = true
		if free != nil && free[ti] {
			s.free[t] = true
		} else {
			s.cons[t] = s.consBase[t : t+1]
		}
	}
}

// Reset rewinds every contraction and installs a new terminal set,
// reusing all buffers: after Reset the state behaves exactly like
// NewState of the same host instance with the new terminals. It keeps
// the state's own distance rows and the sequence they were swept for,
// which a later oracle call reuses only on an equal sequence
// (oracle.go). free follows the Instance convention (aligned with
// terminals; nil means all paying).
func (s *State) Reset(terminals []int, free []bool) {
	s.g.Rewind(s.base)
	s.seq = s.seq[:0]
	n := s.n0
	s.w = s.w[:n]
	s.alive = s.alive[:n]
	s.isTerm = s.isTerm[:n]
	s.free = s.free[:n]
	for i := n; i < len(s.cons); i++ {
		s.cons[i] = nil // release super-terminal constituent slices
	}
	s.cons = s.cons[:n]
	for i := 0; i < n; i++ {
		s.alive[i] = true
		s.isTerm[i] = false
		s.free[i] = false
		s.cons[i] = nil
	}
	s.setTerminals(terminals, free)
}

// StatePool is a mutex-guarded free list of States over one host
// instance (graph + weights). Get hands out a Reset state for the given
// terminal set, building a new one only when the pool is empty, so
// concurrent queries share the amortized graph copies. Because Reset
// restores a state bit-for-bit to its freshly-constructed behavior,
// results never depend on which pooled state served a query.
type StatePool struct {
	mu     sync.Mutex
	free   []*State
	g      *graph.Graph
	w      []float64
	chains *Chains
	// rows is the table of uncontracted distance rows every state of
	// the pool reads before its first contraction (oracle.go). It is
	// empty until the first such oracle call fills it, and read-only
	// after.
	rows hostRows
}

// NewStatePool returns an empty pool over the host of an instance: its
// graph, weights and chain description; each Get brings its own
// terminals. Its table of uncontracted rows stays unfilled until the
// first oracle call that needs it.
func NewStatePool(host Instance) *StatePool {
	return &StatePool{g: host.G, w: host.Weights, chains: host.Chains}
}

// Get returns a state for the given terminals, reusing a pooled one when
// available. Callers return it with Put when done.
func (p *StatePool) Get(terminals []int, free []bool) *State {
	p.mu.Lock()
	var st *State
	if k := len(p.free); k > 0 {
		st = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	if st == nil {
		st = NewState(Instance{G: p.g, Weights: p.w, Terminals: terminals, Free: free, Chains: p.chains})
		st.host = &p.rows
		return st
	}
	st.Reset(terminals, free)
	return st
}

// Put returns a state to the pool for reuse.
func (p *StatePool) Put(st *State) {
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// N0 returns the number of original vertices.
func (s *State) N0() int { return s.n0 }

// Weight returns the node weight of a live or dead vertex.
func (s *State) Weight(v int) float64 { return s.w[v] }

// IsTerminal reports whether live vertex v is a terminal.
func (s *State) IsTerminal(v int) bool { return s.isTerm[v] }

// IsFree reports whether terminal v is a non-paying (source) terminal.
func (s *State) IsFree(v int) bool { return s.free[v] }

// Alive reports whether vertex v has not been contracted away.
func (s *State) Alive(v int) bool { return s.alive[v] }

// Constituents returns the original paying terminals contained in vertex
// v (the paper's N+_t); a singleton for an original paying terminal, nil
// for non-terminals and free terminals.
func (s *State) Constituents(v int) []int { return s.cons[v] }

// LiveTerminals returns the live terminal ids in increasing order.
func (s *State) LiveTerminals() []int {
	var out []int
	for v := 0; v < s.g.N(); v++ {
		if s.alive[v] && s.isTerm[v] {
			out = append(out, v)
		}
	}
	return out
}

// TerminalCounts returns the number of live terminals and of live paying
// terminals, and the first two live terminals in increasing order (−1
// where fewer are live). It allocates nothing, so a greedy step can
// count its terminals without listing them.
func (s *State) TerminalCounts() (live, paying int, first [2]int) {
	first = [2]int{-1, -1}
	for v := 0; v < s.g.N(); v++ {
		if !s.alive[v] || !s.isTerm[v] {
			continue
		}
		if live < 2 {
			first[live] = v
		}
		live++
		if !s.free[v] {
			paying++
		}
	}
	return live, paying, first
}

// PayingTerminals returns live terminals that share costs.
func (s *State) PayingTerminals() []int {
	var out []int
	for _, t := range s.LiveTerminals() {
		if !s.free[t] {
			out = append(out, t)
		}
	}
	return out
}

// dijkstra is the node-weighted shortest-path sweep from src over live
// vertices behind PathBetween and the oracles: dist[v] is the least sum
// of the weights of a path's nodes, src's own excluded, and parent[v]
// is v's predecessor on such a path; both have length g.N(). It runs on
// one lane's heap, so the oracle lanes can sweep one read-only State at
// once. stopTerms > 0 halts the search once that
// many live *paying* terminals have settled. Every entry a caller may
// read is final by then — a settled vertex's dist and the parents along
// its optimal path (all settled strictly earlier) never change
// afterwards — so for callers that only consume paying-terminal
// distances and their paths (the Klein–Ravi scan) the observable bytes
// match an exhaustive run; entries past the stop are garbage and must
// not be read. stopTerms ≤ 0 runs to exhaustion.
//
// Each vertex is pushed at most once. Its key is final when it is first
// reached: the first neighbour u to pop gives du + w(v), every later
// neighbour pops no earlier, and rounding is monotone, so the nd <
// dist[v] test never fires for v again. Each pop takes the minimum
// (key, id) of the heap's contents, so dist and parent are a
// decrease-key sweep's bit for bit, entries past an early stop included
// (refDijkstra in the tests).
//
// On a state with a chain description, the host graph's own vertices
// relax their base edges through it (chains.go, DESIGN.md §11.2): a
// relaxation whose target an earlier pop reached is skipped, an output
// whose live neighbours are all reached is reached but not pushed, and
// the outputs one input reaches on one station are pushed one at a
// time. Each rule leaves out only pops and relaxations that would change
// nothing, so the rows are the same. The edges Shrink appended, and
// every edge of a vertex Shrink minted, are scanned as they are.
func (s *State) dijkstra(sc *scratch, src int, dist []float64, parent []int32, stopTerms int) {
	n := s.g.N()
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if !s.alive[src] {
		return
	}
	// At most n pushes, so the heap never outgrows this capacity.
	if cap(sc.heap) < n {
		sc.heap = make(sweepHeap, 0, roomFor(n))
	}
	h := sc.heap[:0]
	c := s.chains
	if c != nil {
		sc.resetChains(c)
	}
	dist[src] = 0
	h.push(heapSlot{key: 0, v: int32(src)})
	for len(h) > 0 {
		top := h.pop()
		u := int(top.v)
		if stopTerms > 0 && s.isTerm[u] && !s.free[u] {
			if stopTerms--; stopTerms == 0 {
				return
			}
		}
		edges := s.g.Neighbors(u)
		if c != nil && u < c.n {
			if u < c.stations {
				s.relaxInput(sc, &h, dist, parent, u, top.key)
			} else {
				s.relaxOutput(sc, &h, dist, parent, u, top.key)
			}
			edges = edges[c.deg[u]:]
		}
		for _, e := range edges {
			v := e.To
			if !s.alive[v] {
				continue
			}
			if nd := top.key + s.w[v]; nd < dist[v] {
				dist[v] = nd
				parent[v] = int32(u)
				if c == nil || !s.deadEnd(sc, dist, v) {
					h.push(heapSlot{key: nd, v: int32(v)})
				}
			}
		}
		if top.end > 0 {
			s.advanceRun(sc, &h, dist, parent, u, top.end)
		}
	}
}

// sweepHeap is the min-heap of a push-once node-weighted sweep: a
// plain 4-ary heap of (key, vertex) slots. It keeps no positions and
// offers no decrease-key, which a sweep that pushes each vertex once
// never needs.
type sweepHeap []heapSlot

// heapSlot is one pushed vertex. end is nonzero only for an output
// pushed as a member of an input's run on a station (chains.go): the
// run's members lie in ids [v, end). It fills the slot's padding and
// takes no part in the order.
type heapSlot struct {
	key float64
	v   int32
	end int32
}

// before orders slots by (key, vertex). The order is total, so the
// popped minimum is unique whatever the heap's shape.
func (a heapSlot) before(b heapSlot) bool {
	return a.key < b.key || a.key == b.key && a.v < b.v
}

// push inserts slot x.
func (h *sweepHeap) push(x heapSlot) {
	a := append(*h, x)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
	*h = a
}

// pop removes and returns the minimum slot of a non-empty heap.
func (h *sweepHeap) pop() heapSlot {
	a := *h
	top, last := a[0], len(a)-1
	x := a[last]
	a = a[:last]
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < last; j++ {
			if a[j].before(a[m]) {
				m = j
			}
		}
		if !a[m].before(x) {
			break
		}
		a[i] = a[m]
		i = m
	}
	if last > 0 {
		a[i] = x
	}
	*h = a
	return top
}

// PathBetween returns the minimum node-weight path between live vertices
// a and b (inclusive of both) and its total node weight.
func (s *State) PathBetween(a, b int) ([]int, float64) {
	dist, parent := s.sc.distBufs(s.g.N())
	s.dijkstra(&s.sc, a, dist, parent, -1)
	if math.IsInf(dist[b], 1) {
		return nil, math.Inf(1)
	}
	return appendPath(parent, b, nil), dist[b] + s.w[a]
}

// distBufs returns the single-source distance scratch sized to n.
func (sc *scratch) distBufs(n int) ([]float64, []int32) {
	sc.dist = fit(sc.dist, n)
	sc.par = fit(sc.par, n)
	return sc.dist, sc.par
}

// appendPath walks parent pointers from v back to the source of a
// dijkstra sweep and appends the path source..v to buf.
func appendPath(parent []int32, v int, buf []int) []int {
	start := len(buf)
	for x := v; x != -1; x = int(parent[x]) {
		buf = append(buf, x)
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// Shrink contracts the spider's nodes into a fresh zero-weight terminal
// and returns its id. The new terminal inherits the union of the covered
// terminals' constituents and adjacency to every live neighbor of the
// spider. It is free only if every covered terminal was free: a
// super-terminal that swallowed the source alongside paying agents keeps
// paying through its constituents (§2.2.3's modified sharing).
func (s *State) Shrink(sp Spider) int {
	nv := s.g.AddVertex()
	s.w = append(s.w, 0)
	s.alive = append(s.alive, true)
	s.isTerm = append(s.isTerm, true)
	if cap(s.sc.inSpider) < nv+1 {
		s.sc.inSpider = make([]bool, nv+1)
		s.sc.seen = make([]bool, nv+1)
	}
	inSpider := s.sc.inSpider[:nv+1]
	seen := s.sc.seen[:nv+1]
	for _, v := range sp.Nodes {
		inSpider[v] = true
	}
	var cons []int
	freeAll := true
	for _, t := range sp.Terms {
		cons = append(cons, s.cons[t]...)
		if !s.free[t] {
			freeAll = false
		}
	}
	sort.Ints(cons)
	s.cons = append(s.cons, cons)
	s.free = append(s.free, freeAll)
	// Wire the new vertex to live outside neighbors, then kill the spider.
	touched := s.sc.touched[:0]
	for _, v := range sp.Nodes {
		for _, e := range s.g.Neighbors(v) {
			u := e.To
			if s.alive[u] && !inSpider[u] && !seen[u] {
				seen[u] = true
				touched = append(touched, u)
				s.g.AddEdge(nv, u, 0)
			}
		}
	}
	s.sc.touched = touched
	for _, u := range touched {
		seen[u] = false
	}
	for _, v := range sp.Nodes {
		inSpider[v] = false
		s.alive[v] = false
	}
	s.seq = append(append(s.seq, sp.Nodes...), -1)
	return nv
}

// Solution is the output of the greedy NWST algorithm: the selected
// original vertices (terminals included) and their total node weight.
type Solution struct {
	Nodes []int
	Cost  float64
}

// Solve runs the shrink-greedy NWST approximation: repeatedly contract
// the oracle's minimum-ratio spider until at most two terminals remain,
// then connect those optimally. Returns ok=false if the terminals are not
// connected in the instance.
func Solve(in Instance, oracle Oracle) (Solution, bool) {
	s := NewState(in)
	chosen := map[int]bool{}
	record := func(nodes []int) {
		for _, v := range nodes {
			if v < s.n0 {
				chosen[v] = true
			}
		}
	}
	for _, t := range in.Terminals {
		chosen[t] = true
	}
	for {
		live, paying, first := s.TerminalCounts()
		if live <= 1 {
			break
		}
		if live == 2 {
			path, cost := s.PathBetween(first[0], first[1])
			if math.IsInf(cost, 1) {
				return Solution{}, false
			}
			record(path)
			break
		}
		sp, ok := oracle(s, min(3, paying))
		if !ok {
			return Solution{}, false
		}
		record(sp.Nodes)
		s.Shrink(sp)
	}
	var nodes []int
	for v := range chosen {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	// Sum in node order: map order would perturb the float low bits.
	var cost float64
	for _, v := range nodes {
		cost += in.Weights[v]
	}
	return Solution{Nodes: nodes, Cost: cost}, true
}

// SpanningTree returns a BFS spanning tree (edge list) of the subgraph of
// g induced by the given nodes, rooted at root. Node-weighted cost does
// not depend on the chosen edges, so any spanning tree of the induced
// subgraph realizes the solution; the reduction back to wireless multicast
// needs one concrete tree.
func SpanningTree(g *graph.Graph, nodes []int, root int) []graph.Edge {
	in := map[int]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	seen := map[int]bool{root: true}
	var edges []graph.Edge
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(u) {
			if in[e.To] && !seen[e.To] {
				seen[e.To] = true
				edges = append(edges, graph.Edge{From: u, To: e.To, W: e.W})
				queue = append(queue, e.To)
			}
		}
	}
	return edges
}

// ExactSmall computes the optimal NWST cost by enumerating subsets of
// non-terminal vertices (≤ maxOptional of them) and checking terminal
// connectivity of the induced subgraph.
func ExactSmall(in Instance, maxOptional int) (float64, bool) {
	in.Validate()
	n := in.G.N()
	isTerm := make([]bool, n)
	for _, t := range in.Terminals {
		isTerm[t] = true
	}
	var optional []int
	var termWeight float64
	for v := 0; v < n; v++ {
		if isTerm[v] {
			termWeight += in.Weights[v]
		} else {
			optional = append(optional, v)
		}
	}
	if len(optional) > maxOptional {
		panic(fmt.Sprintf("nwst: ExactSmall limited to %d optional nodes, got %d", maxOptional, len(optional)))
	}
	if len(in.Terminals) <= 1 {
		return termWeight, true
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(optional); mask++ {
		var w float64
		inSet := make([]bool, n)
		for _, t := range in.Terminals {
			inSet[t] = true
		}
		for b, v := range optional {
			if mask&(1<<b) != 0 {
				inSet[v] = true
				w += in.Weights[v]
			}
		}
		if w+termWeight >= best {
			continue
		}
		if connectedOn(in.G, inSet, in.Terminals) {
			best = w + termWeight
		}
	}
	return best, !math.IsInf(best, 1)
}

func connectedOn(g *graph.Graph, inSet []bool, terms []int) bool {
	start := terms[0]
	seen := make([]bool, g.N())
	seen[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(u) {
			if inSet[e.To] && !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	for _, t := range terms {
		if !seen[t] {
			return false
		}
	}
	return true
}
