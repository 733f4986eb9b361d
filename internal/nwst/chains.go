package nwst

import "math"

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
	// thr[j*S+i] is the first level of station i that input j reaches,
	// 0 for i == j. Some level of every station reaches every input.
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

// NewChains describes the reduction graph laid out by first and thr:
// first[i] is station i's level-0 output and first[S] the vertex count,
// and thr[j*S+i] is the first level of station i that reaches input j,
// 0 for i == j. It keeps both slices, which must not change afterwards.
// Each station's other inputs are ordered by (thr, id) with a counting
// sort over its levels, whose running counts are the outputs' upto.
func NewChains(first, thr []int32) *Chains {
	S := len(first) - 1
	n := int(first[S])
	c := &Chains{
		stations: S, n: n,
		first:   first,
		thr:     thr,
		order:   make([]int32, S*S),
		upto:    make([]int32, n-S),
		station: make([]int32, n-S),
		deg:     make([]int32, n),
	}
	most := int32(0)
	for i := 0; i < S; i++ {
		most = max(most, first[i+1]-first[i])
	}
	// at[t] counts station i's other inputs with thr below t: the
	// position of the first with thr t in its order, and the upto of
	// level t−1.
	buf := make([]int32, most+1)
	for i := 0; i < S; i++ {
		levels := first[i+1] - first[i]
		at := buf[:levels+1]
		clear(at)
		for j := 0; j < S; j++ {
			t := thr[j*S+i]
			c.deg[j] += levels - t
			if j != i {
				at[t+1]++
			}
		}
		for t := int32(1); t <= levels; t++ {
			at[t] += at[t-1]
		}
		for m := int32(0); m < levels; m++ {
			v := int(first[i] + m)
			c.station[v-S] = int32(i)
			c.upto[v-S] = at[m+1]
			c.deg[v] = 1 + at[m+1]
		}
		for j := 0; j < S; j++ {
			if t := thr[j*S+i]; j != i {
				c.order[i*S+int(at[t])] = int32(j)
				at[t]++
			}
		}
	}
	return c
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
