package nwst

import (
	"fmt"
	"math"
	"slices"

	"wmcs/internal/graph"
)

// This file is the station-chain description of a MEMT→NWST reduction
// graph H (internal/memtred) and the parts of the node-weighted sweep
// that read it (DESIGN.md §11.2). In H the input nodes are vertices
// 0..S−1, one per station, and station i's output nodes are contiguous
// ids in ascending weight. Output level m of station i is adjacent to
// input i and to every input j whose first reaching level thr(i, j) is
// at most m; input j is adjacent to all of its own station's levels and
// to station i's suffix of levels from thr(i, j). So the neighbour sets
// of a station's outputs are nested, and the sweep can skip every
// relaxation whose target an earlier pop already reached.

// Chains describes a graph laid out as the reduction graph H. It is
// read-only once built and shared by every State over that graph.
type Chains struct {
	// stations is S: the input nodes are vertices 0..S−1. n is the
	// vertex count of the described graph.
	stations, n int
	// first[i] is station i's level-0 output; first[S] == n.
	first []int32
	// thr[j*S+i] is the first level of station i that input j reaches:
	// 0 for i == j, station i's level count when no level reaches j.
	thr []int32
	// order[i*S:] lists station i's other inputs by (thr, id), so the
	// inputs output level m reaches are its first upto entries.
	order []int32
	// upto[v−S] is the number of inputs other than its own that output
	// v reaches, and station[v−S] is its station.
	upto, station []int32
	// deg[v] is vertex v's degree in the described graph; a State's
	// vertex has these base edges first and then the edges Shrink
	// appended.
	deg []int32
}

// ChainSource supplies a host graph's chain description. The reduction
// (memtred.Reduction) implements it and derives the description once,
// on the first call; a nil description means "scan every edge".
type ChainSource interface {
	Chains() *Chains
}

// DescribeChains derives the chain description of g, laid out as a
// reduction graph with the given number of stations, from g's own
// adjacency lists and the node weights. It checks the whole layout: each
// output lists its own input first and then other inputs in ascending
// id, a station's outputs are contiguous with weights that never
// decrease, the neighbour sets of a station's outputs are nested, and
// every input's list is exactly the one the description implies. It
// returns an error naming the first vertex that does not fit.
func DescribeChains(g *graph.Graph, weights []float64, stations int) (*Chains, error) {
	n, S := g.N(), stations
	if S < 1 || S > n || len(weights) != n {
		return nil, fmt.Errorf("nwst: %d stations, %d weights for %d vertices", S, len(weights), n)
	}
	c := &Chains{
		stations: S, n: n,
		first:   make([]int32, S+1),
		thr:     make([]int32, S*S),
		order:   make([]int32, S*S),
		upto:    make([]int32, n-S),
		station: make([]int32, n-S),
		deg:     make([]int32, n),
	}
	// Stations and levels, from each output's first neighbour.
	last := -1
	for v := S; v < n; v++ {
		l := g.Neighbors(v)
		if len(l) == 0 || l[0].To >= S {
			return nil, fmt.Errorf("nwst: output %d does not list its station's input first", v)
		}
		i := l[0].To
		switch {
		case i < last:
			return nil, fmt.Errorf("nwst: output %d of station %d follows station %d's", v, i, last)
		case i == last && !(weights[v] >= weights[v-1]):
			return nil, fmt.Errorf("nwst: output %d weighs less than the level below it", v)
		}
		for ; last < i; last++ {
			c.first[last+1] = int32(v)
		}
		c.station[v-S] = int32(i)
	}
	for ; last < S; last++ {
		c.first[last+1] = int32(n)
	}
	levels := func(i int) int32 { return c.first[i+1] - c.first[i] }
	for j := 0; j < S; j++ {
		for i := 0; i < S; i++ {
			if i != j {
				c.thr[j*S+i] = levels(i)
			}
		}
	}
	// Reaching levels and nesting: level m must list exactly the inputs
	// that some level up to m lists.
	for i := 0; i < S; i++ {
		reached := int32(0)
		for v := int(c.first[i]); v < int(c.first[i+1]); v++ {
			l := g.Neighbors(v)
			m := int32(v) - c.first[i]
			for k, e := range l[1:] {
				j := e.To
				if j >= S || j == i || k > 0 && j <= l[k].To {
					return nil, fmt.Errorf("nwst: output %d lists %d out of place", v, j)
				}
				if c.thr[j*S+i] == levels(i) {
					c.thr[j*S+i] = m
					reached++
				}
			}
			if int32(len(l)-1) != reached {
				return nil, fmt.Errorf("nwst: output %d misses an input a lower level of station %d reaches", v, i)
			}
			c.upto[v-S] = reached
			c.deg[v] = int32(len(l))
		}
		ord := c.order[i*S : i*S+S-1]
		k := 0
		for j := 0; j < S; j++ {
			if j != i {
				ord[k] = int32(j)
				k++
			}
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return int(c.thr[int(a)*S+i] - c.thr[int(b)*S+i]) })
	}
	// Every input's list must be the one the description implies: per
	// station in id order, the levels from thr on.
	for j := 0; j < S; j++ {
		l := g.Neighbors(j)
		k := 0
		for i := 0; i < S; i++ {
			for v := c.first[i] + c.thr[j*S+i]; v < c.first[i+1]; v++ {
				if k >= len(l) || l[k].To != int(v) {
					return nil, fmt.Errorf("nwst: input %d's list differs from station %d's levels from %d", j, i, c.thr[j*S+i])
				}
				k++
			}
		}
		if k != len(l) {
			return nil, fmt.Errorf("nwst: input %d has %d neighbours beyond its stations' levels", j, len(l)-k)
		}
		c.deg[j] = int32(len(l))
	}
	return c, nil
}

// resetChains readies a lane's per-sweep chain marks: no level of any
// station relaxed by an input yet, and no input known reached.
func (sc *scratch) resetChains(c *Chains) {
	sc.lo = fit(sc.lo, c.stations)
	sc.ptr = fit(sc.ptr, c.stations)
	for i := range sc.lo {
		sc.lo[i] = c.first[i+1] - c.first[i]
		sc.ptr[i] = 0
	}
}

// relaxInput relaxes input j's base edges, popped at key, through the
// description (rule (a)): station i's levels from thr(i, j) up to the
// lowest level an earlier-popped input relaxed, sc.lo[i]; every level
// above was relaxed then and is reached or dead. The levels it reaches
// on one station are one run of ascending (key, id): only the first
// that is not a dead end is pushed, carrying the run's end (rule (c)).
func (s *State) relaxInput(sc *scratch, h *sweepHeap, dist []float64, parent []int32, j int, key float64) {
	c := s.chains
	S := c.stations
	for i, t := range c.thr[j*S : (j+1)*S] {
		lo := sc.lo[i]
		if t >= lo {
			continue
		}
		sc.lo[i] = t
		end := c.first[i] + lo
		head := -1
		for v := int(c.first[i] + t); v < int(end); v++ {
			if !s.alive[v] {
				continue
			}
			if nd := key + s.w[v]; nd < dist[v] {
				dist[v] = nd
				parent[v] = int32(j)
				if head < 0 && !s.deadEnd(sc, dist, v) {
					head = v
				}
			}
		}
		if head >= 0 {
			h.push(heapSlot{key: dist[head], v: int32(head), end: end})
		}
	}
}

// relaxOutput relaxes output u's base edges, popped at key, through the
// description (rule (a)): its own input, and the inputs its level
// reaches past sc.ptr of its station, before which every input is
// reached or dead.
func (s *State) relaxOutput(sc *scratch, h *sweepHeap, dist []float64, parent []int32, u int, key float64) {
	c := s.chains
	S := c.stations
	i := int(c.station[u-S])
	if s.alive[i] {
		if nd := key + s.w[i]; nd < dist[i] {
			dist[i] = nd
			parent[i] = int32(u)
			h.push(heapSlot{key: nd, v: int32(i)})
		}
	}
	lim := c.upto[u-S]
	if p := sc.ptr[i]; p < lim {
		for _, j := range c.order[i*S+int(p) : i*S+int(lim)] {
			if !s.alive[j] {
				continue
			}
			if nd := key + s.w[j]; nd < dist[j] {
				dist[j] = nd
				parent[j] = int32(u)
				h.push(heapSlot{key: nd, v: j})
			}
		}
		sc.ptr[i] = lim
	}
}

// advanceRun pushes the member after u of u's run (rule (c)): the next
// level in (u, end) that u's parent reached and that is not a dead end.
// A member that is a dead end now stays one, so it is never pushed.
func (s *State) advanceRun(sc *scratch, h *sweepHeap, dist []float64, parent []int32, u int, end int32) {
	p := parent[u]
	for v := u + 1; v < int(end); v++ {
		if parent[v] == p && !s.deadEnd(sc, dist, v) {
			h.push(heapSlot{key: dist[v], v: int32(v), end: end})
			return
		}
	}
}

// deadEnd reports that v is a described output, not a terminal, whose
// live neighbours are all reached, so its pop would relax nothing (rule
// (b)). It moves its station's sc.ptr past inputs found reached or dead,
// and checks the edges Shrink appended to v as well as its base edges.
func (s *State) deadEnd(sc *scratch, dist []float64, v int) bool {
	c := s.chains
	S := c.stations
	if v < S || v >= c.n || s.isTerm[v] {
		return false
	}
	i := int(c.station[v-S])
	if s.alive[i] && math.IsInf(dist[i], 1) {
		return false
	}
	lim, p := c.upto[v-S], sc.ptr[i]
	for ; p < lim; p++ {
		if j := c.order[i*S+int(p)]; s.alive[j] && math.IsInf(dist[j], 1) {
			break
		}
	}
	sc.ptr[i] = p
	if p < lim {
		return false
	}
	for _, e := range s.g.Neighbors(v)[c.deg[v]:] {
		if s.alive[e.To] && math.IsInf(dist[e.To], 1) {
			return false
		}
	}
	return true
}
