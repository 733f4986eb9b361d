package nwst

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wmcs/internal/engine"
)

// The references below are deliberately naive restatements of the two
// oracles: a full Dijkstra per center, every prefix or leg union rebuilt
// from scratch, and one global best under the same ratio < best − 1e-15
// rule. They share none of the oracles' optimisations — the early-stop
// sweep, the incremental prefix union, the hub-pair table, the slicing,
// the fold and the winner-only assembly — so agreement pins all of them.

// naiveSpider unions the legs (node paths from center) in order and
// prices the union, cost summed in insertion order.
func naiveSpider(s *State, center int, legs [][]int) Spider {
	in := map[int]bool{center: true}
	nodes := []int{center}
	for _, leg := range legs {
		for _, x := range leg {
			if !in[x] {
				in[x] = true
				nodes = append(nodes, x)
			}
		}
	}
	var cost float64
	var terms []int
	paying := 0
	for _, x := range nodes {
		cost += s.Weight(x)
		if s.IsTerminal(x) {
			terms = append(terms, x)
			if !s.IsFree(x) {
				paying++
			}
		}
	}
	sort.Ints(nodes)
	sort.Ints(terms)
	ratio := math.Inf(1)
	if paying > 0 {
		ratio = cost / float64(paying)
	}
	return Spider{Center: center, Nodes: nodes, Terms: terms, Paying: paying, Cost: cost, Ratio: ratio}
}

// naiveBest is the single global best of a reference scan.
type naiveBest struct {
	sp    Spider
	found bool
}

func (b *naiveBest) offer(sp Spider, minCover int) {
	if sp.Paying >= minCover && sp.Ratio < b.sp.Ratio-1e-15 {
		b.sp, b.found = sp, true
	}
}

// naiveKleinRavi: per center, the minCover, minCover+1, … nearest paying
// terminals by (distance, id), each prefix's union built afresh.
func naiveKleinRavi(s *State, minCover int) (Spider, bool) {
	best := naiveBest{sp: Spider{Ratio: math.Inf(1)}}
	naiveKRInto(s, minCover, &best)
	return best.sp, best.found
}

func naiveKRInto(s *State, minCover int, best *naiveBest) {
	paying := s.PayingTerminals()
	if len(paying) == 0 {
		return
	}
	minCover = min(minCover, len(paying))
	for v := 0; v < s.g.N(); v++ {
		if !s.Alive(v) {
			continue
		}
		dist, parent := s.NodeDist(v)
		terms := append([]int(nil), paying...)
		sort.Slice(terms, func(a, b int) bool {
			if dist[terms[a]] != dist[terms[b]] {
				return dist[terms[a]] < dist[terms[b]]
			}
			return terms[a] < terms[b]
		})
		for j := minCover; j <= len(terms); j++ {
			if math.IsInf(dist[terms[j-1]], 1) {
				break
			}
			var legs [][]int
			for _, t := range terms[:j] {
				legs = append(legs, pathNodes(parent, t))
			}
			best.offer(naiveSpider(s, v, legs), minCover)
		}
	}
}

// naiveBranchSpider: the Klein–Ravi candidates, then per center the
// greedy over single and hub-forked legs by cost per newly covered
// terminal, every pick's union built afresh (single legs first, then
// each hub leg as hub path and both forks).
func naiveBranchSpider(s *State, minCover int) (Spider, bool) {
	best := naiveBest{sp: Spider{Ratio: math.Inf(1)}}
	naiveKRInto(s, minCover, &best)
	naiveLegsInto(s, minCover, &best)
	return best.sp, best.found
}

// naiveBranchLegs is naiveBranchSpider without the Klein–Ravi
// candidates.
func naiveBranchLegs(s *State, minCover int) (Spider, bool) {
	best := naiveBest{sp: Spider{Ratio: math.Inf(1)}}
	naiveLegsInto(s, minCover, &best)
	return best.sp, best.found
}

func naiveLegsInto(s *State, minCover int, best *naiveBest) {
	paying := s.PayingTerminals()
	if len(paying) == 0 {
		return
	}
	minCover = min(minCover, len(paying))
	n := s.g.N()
	dists := make([][]float64, n)
	parents := make([][]int32, n)
	for v := 0; v < n; v++ {
		if s.Alive(v) {
			dists[v], parents[v] = s.NodeDist(v)
		}
	}
	type leg struct {
		cost        float64
		hub, t1, t2 int
	}
	for v := 0; v < n; v++ {
		if !s.Alive(v) {
			continue
		}
		var items []leg
		for _, t := range paying {
			if !math.IsInf(dists[v][t], 1) {
				items = append(items, leg{dists[v][t], -1, t, -1})
			}
		}
		for u := 0; u < n; u++ {
			if !s.Alive(u) || u == v || math.IsInf(dists[v][u], 1) {
				continue
			}
			t1, t2 := -1, -1
			for _, t := range paying {
				d := dists[u][t]
				if math.IsInf(d, 1) {
					continue
				}
				if t1 < 0 || d < dists[u][t1] {
					t1, t2 = t, t1
				} else if t2 < 0 || d < dists[u][t2] {
					t2 = t
				}
			}
			if t2 >= 0 {
				items = append(items, leg{dists[v][u] + dists[u][t1] + dists[u][t2], u, t1, t2})
			}
		}
		covered := map[int]bool{}
		var chosen []leg
		for len(covered) < len(paying) {
			bi, bc := -1, math.Inf(1)
			for i, it := range items {
				nu := 0
				if !covered[it.t1] {
					nu++
				}
				if it.t2 >= 0 && !covered[it.t2] {
					nu++
				}
				if nu > 0 && it.cost/float64(nu) < bc {
					bi, bc = i, it.cost/float64(nu)
				}
			}
			if bi < 0 {
				break
			}
			it := items[bi]
			covered[it.t1] = true
			if it.t2 >= 0 {
				covered[it.t2] = true
			}
			chosen = append(chosen, it)
			if len(covered) < minCover {
				continue
			}
			var legs [][]int
			for _, c := range chosen {
				if c.hub < 0 {
					legs = append(legs, pathNodes(parents[v], c.t1))
				}
			}
			for _, c := range chosen {
				if c.hub >= 0 {
					legs = append(legs, pathNodes(parents[v], c.hub),
						pathNodes(parents[c.hub], c.t1), pathNodes(parents[c.hub], c.t2))
				}
			}
			best.offer(naiveSpider(s, v, legs), minCover)
		}
	}
}

// branchLegs runs the branch oracle with its Klein–Ravi candidates left
// out of the fold. Leg-greedy winners are rare on random instances, so
// this is what compares the leg arithmetic on every call.
func branchLegs(pool *engine.Pool) Oracle {
	return func(s *State, minCover int) (Spider, bool) {
		if !s.begin(minCover, true, pool) {
			return Spider{Ratio: math.Inf(1)}, false
		}
		s.scan(pool, (*State).sweepSlice)
		s.scan(pool, (*State).branchSlice)
		return s.materialize(fold(noSpider, s.brBest))
	}
}

// integerWeights rounds an instance's weights to small integers, which
// makes exactly tied ratios common (and sub-ε near-ties impossible).
func integerWeights(in Instance) Instance {
	w := make([]float64, len(in.Weights))
	for i, x := range in.Weights {
		w[i] = math.Ceil(x)
	}
	in.Weights = w
	return in
}

// oraclesUnderTest are the production oracles at widths 1 and 4, each
// paired with its naive reference, plus the branch oracle's leg greedy
// alone.
func oraclesUnderTest() []struct {
	name       string
	got, naive Oracle
} {
	pool := engine.New(4)
	return []struct {
		name       string
		got, naive Oracle
	}{
		{"kr/w1", KleinRaviOracle, naiveKleinRavi},
		{"kr/w4", func(s *State, k int) (Spider, bool) { return s.kleinRavi(k, pool) }, naiveKleinRavi},
		{"branch/w1", BranchSpiderOracle, naiveBranchSpider},
		{"branch/w4", BranchSpiderOracleOn(pool), naiveBranchSpider},
		{"legs/w1", branchLegs(nil), naiveBranchLegs},
		{"legs/w4", branchLegs(pool), naiveBranchLegs},
	}
}

// TestParallelOraclesMatchSerial pins both oracles, at widths 1 and 4,
// to their naive serial references spider for spider: on random
// instances (real and integer weights, with and without a free source)
// for every minCover, and at every step of a contraction run, where the
// graph grows by one super-terminal per Shrink. The run goes three
// times: on a fresh State, then on two states drawn in turn from one
// StatePool. The first pooled run fills the pool's table of
// uncontracted rows and the second reads it, so a sweep that wrote into
// the table would show up in the second run.
func TestParallelOraclesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 6 + rng.Intn(20)
		k := 2 + rng.Intn(n/2)
		in := randomInstance(rng, n, k)
		switch trial % 4 {
		case 1:
			in = integerWeights(in)
		case 2:
			in = withFreeSource(in)
		case 3:
			in = withFreeSource(integerWeights(in))
		}
		for _, o := range oraclesUnderTest() {
			for minCover := 1; minCover <= min(3, k); minCover++ {
				want, okW := o.naive(NewState(in), minCover)
				got, okG := o.got(NewState(in), minCover)
				if okW != okG || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s minCover %d:\ngot  %+v (%v)\nwant %+v (%v)", trial, o.name, minCover, got, okG, want, okW)
				}
			}
			pool := NewStatePool(in.G, in.Weights)
			for run, draw := range []func() *State{
				func() *State { return NewState(in) },
				func() *State { return pool.Get(in.Terminals, in.Free) },
				func() *State { return pool.Get(in.Terminals, in.Free) },
			} {
				ref, st := NewState(in), draw()
				for step := 0; len(ref.LiveTerminals()) > 2; step++ {
					minCover := min(3, len(ref.PayingTerminals()))
					want, okW := o.naive(ref, minCover)
					got, okG := o.got(st, minCover)
					if okW != okG || !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %s run %d step %d:\ngot  %+v (%v)\nwant %+v (%v)", trial, o.name, run, step, got, okG, want, okW)
					}
					if !okW {
						break
					}
					ref.Shrink(want)
					st.Shrink(want)
				}
			}
		}
	}
}

// TestParallelOracleWidthInvariant: the branch oracle produces the same
// spider at width 1 and every wider pool (the fixed-slice contract),
// through a full greedy Solve.
func TestParallelOracleWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(24)
		k := 3 + rng.Intn(n/3)
		in := randomInstance(rng, n, k)
		base, okBase := Solve(in, BranchSpiderOracle)
		for _, width := range []int{2, 4, 8} {
			got, ok := Solve(in, BranchSpiderOracleOn(engine.New(width)))
			if ok != okBase {
				t.Fatalf("trial %d width %d: ok %v != %v", trial, width, ok, okBase)
			}
			if ok && !reflect.DeepEqual(got, base) {
				t.Fatalf("trial %d width %d: %+v != %+v", trial, width, got, base)
			}
		}
	}
}

// TestParallelSolveMatchesSerialSolve: end-to-end greedy equality — same
// contractions, same final solution — between each oracle at widths 1
// and 4 and its naive serial reference.
func TestParallelSolveMatchesSerialSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(20)
		k := 2 + rng.Intn(n/3)
		in := randomInstance(rng, n, k)
		if trial%2 == 1 {
			in = integerWeights(in)
		}
		for _, o := range oraclesUnderTest() {
			want, okW := Solve(in, o.naive)
			got, okG := Solve(in, o.got)
			if okW != okG || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: %+v (%v) != %+v (%v)", trial, o.name, got, okG, want, okW)
			}
		}
	}
}

// cloneSpider deep-copies a spider so later mutation of shared backing
// arrays would show up as inequality.
func cloneSpider(sp Spider) Spider {
	sp.Nodes = append([]int(nil), sp.Nodes...)
	sp.Terms = append([]int(nil), sp.Terms...)
	return sp
}

// TestOracleSpidersOwnTheirSlices pins the TrajectoryMemo immutability
// contract (memo.go): a returned spider must not alias State buffers,
// so resetting the same State to another terminal set and running both
// oracles again must leave earlier spiders untouched.
func TestOracleSpidersOwnTheirSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := randomInstance(rng, 24, 8)
	alt := randomInstance(rand.New(rand.NewSource(43)), 24, 10)
	for _, width := range []int{1, 4} {
		pool := engine.New(width)
		oracles := []Oracle{
			func(s *State, k int) (Spider, bool) { return s.kleinRavi(k, pool) },
			BranchSpiderOracleOn(pool),
		}
		st := NewState(in)
		var kept, saved []Spider
		for _, o := range oracles {
			sp, ok := o(st, 3)
			if !ok {
				t.Fatalf("width %d: no spider", width)
			}
			kept = append(kept, sp)
			saved = append(saved, cloneSpider(sp))
		}
		st.Reset(alt.Terminals, nil)
		for _, o := range oracles {
			for minCover := 1; minCover <= 3; minCover++ {
				o(st, minCover)
			}
		}
		if !reflect.DeepEqual(kept, saved) {
			t.Fatalf("width %d: returned spiders changed after Reset and new calls:\n%+v\nwas\n%+v", width, kept, saved)
		}
	}
}

// TestOracleAllocsPinned: on a warmed, reused State at width 1 an oracle
// call allocates exactly the returned spider's Nodes and Terms — scans
// record arithmetic only, so no per-slice or per-candidate copy can
// creep back in. The same holds for a pooled state that has contracted
// nothing, once its pool's table is filled: reading the table costs no
// allocation.
func TestOracleAllocsPinned(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(47)), 30, 9)
	for _, o := range []struct {
		name   string
		oracle Oracle
	}{{"kr", KleinRaviOracle}, {"branch", BranchSpiderOracle}} {
		st := NewState(in)
		o.oracle(st, 3)
		if got := testing.AllocsPerRun(20, func() { o.oracle(st, 3) }); got != 2 {
			t.Errorf("%s: %v allocs per call, want 2", o.name, got)
		}
		pooled := NewStatePool(in.G, in.Weights).Get(in.Terminals, nil)
		o.oracle(pooled, 3)
		if got := testing.AllocsPerRun(20, func() { o.oracle(pooled, 3) }); got != 2 {
			t.Errorf("%s pooled at step 0: %v allocs per call, want 2", o.name, got)
		}
	}
}
