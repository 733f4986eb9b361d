package nwst

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"wmcs/internal/engine"
	"wmcs/internal/graph"
)

// The references below are deliberately naive restatements of the two
// oracles: a full decrease-key Dijkstra per center (refDijkstra), every
// prefix or leg union rebuilt from scratch, every forked leg kept, and
// one global best under the same ratio < best − 1e-15 rule. They share
// none of the oracles' optimisations — the push-once sweep and its
// chain rules, the early-stop sweep, the pool's table and the reuse of
// a state's own rows, the incremental prefix and leg unions, the hub
// table and the pair table, the pruning of dominated forked legs, the
// slicing, the fold and the winner-only assembly — so agreement pins
// all of them.

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
		dist, parent := refDijkstra(s, v, -1)
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
				legs = append(legs, appendPath(parent, t, nil))
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
			dists[v], parents[v] = refDijkstra(s, v, -1)
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
					legs = append(legs, appendPath(parents[v], c.t1, nil))
				}
			}
			for _, c := range chosen {
				if c.hub >= 0 {
					legs = append(legs, appendPath(parents[v], c.hub, nil),
						appendPath(parents[c.hub], c.t1, nil), appendPath(parents[c.hub], c.t2, nil))
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
		if !s.branchPasses(minCover, pool) {
			return Spider{Ratio: math.Inf(1)}, false
		}
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

// oracleCase is an oracle under test, its naive reference, and whether
// it is a branch oracle, which reads (and may reuse) a state's own rows
// off the pool's table.
type oracleCase struct {
	name       string
	got, naive Oracle
	branch     bool
}

// oraclesUnderTest are the production oracles, the branch oracle at
// widths 1 and 4 (Klein–Ravi scans at width 1 only), each paired with
// its naive reference, plus the branch oracle's leg greedy alone.
func oraclesUnderTest() []oracleCase {
	pool := engine.New(4)
	return []oracleCase{
		{"kr/w1", KleinRaviOracle, naiveKleinRavi, false},
		{"branch/w1", BranchSpiderOracle, naiveBranchSpider, true},
		{"branch/w4", BranchSpiderOracleOn(pool), naiveBranchSpider, true},
		{"legs/w1", branchLegs(nil), naiveBranchLegs, true},
		{"legs/w4", branchLegs(pool), naiveBranchLegs, true},
	}
}

// replay runs a contraction run on st, and on the fresh reference state
// ref in step, for at most calls oracle calls (all of them when
// calls < 0): each call must return the naive reference's spider, and
// both states then shrink it. It returns the spiders and, per call,
// whether st reused its own rows.
func replay(t *testing.T, label string, o oracleCase, ref, st *State, calls int) (spiders []Spider, reused []bool) {
	t.Helper()
	for step := 0; step != calls && len(ref.LiveTerminals()) > 2; step++ {
		minCover := min(3, len(ref.PayingTerminals()))
		want, okW := o.naive(ref, minCover)
		got, okG := o.got(st, minCover)
		if okW != okG || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s step %d:\ngot  %+v (%v)\nwant %+v (%v)", label, step, got, okG, want, okW)
		}
		reused = append(reused, st.reused)
		if !okW {
			break
		}
		spiders = append(spiders, want)
		ref.Shrink(want)
		st.Shrink(want)
	}
	return spiders, reused
}

// withoutTerminal drops terminal x from an instance's terminal set.
func withoutTerminal(in Instance, x int) Instance {
	out := Instance{G: in.G, Weights: in.Weights, Chains: in.Chains}
	for i, t := range in.Terminals {
		if t != x {
			out.Terminals = append(out.Terminals, t)
			out.Free = append(out.Free, in.Free != nil && in.Free[i])
		}
	}
	return out
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
//
// The second pooled state then goes back to the pool and is drawn
// again, first for an attempt cut after its second oracle call, as when
// a receiver cannot pay the second spider, and then for two replays,
// each cut the same way. On the same terminals the first spider
// matches, so a branch oracle's second call must reuse the rows the cut
// attempt swept. Without one of that spider's paying terminals the
// first spider usually differs, and the second call must reuse exactly
// when it does not.
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
		checkOracles(t, fmt.Sprintf("trial %d", trial), in)
	}
}

// checkOracles is TestParallelOraclesMatchSerial's check of one
// instance, for every oracle under test.
func checkOracles(t *testing.T, label string, in Instance) {
	t.Helper()
	for _, o := range oraclesUnderTest() {
		for minCover := 1; minCover <= min(3, len(in.Terminals)); minCover++ {
			want, okW := o.naive(NewState(in), minCover)
			got, okG := o.got(NewState(in), minCover)
			if okW != okG || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s minCover %d:\ngot  %+v (%v)\nwant %+v (%v)", label, o.name, minCover, got, okG, want, okW)
			}
		}
		pool := NewStatePool(in)
		var st *State
		for run, draw := range []func() *State{
			func() *State { return NewState(in) },
			func() *State { return pool.Get(in.Terminals, in.Free) },
			func() *State { return pool.Get(in.Terminals, in.Free) },
		} {
			st = draw()
			replay(t, fmt.Sprintf("%s %s run %d", label, o.name, run), o, NewState(in), st, -1)
		}
		pool.Put(st)
		attempt := func(name string, set Instance) ([]Spider, []bool) {
			st := pool.Get(set.Terminals, set.Free)
			defer pool.Put(st)
			return replay(t, fmt.Sprintf("%s %s %s", label, o.name, name), o, NewState(set), st, 2)
		}
		first, _ := attempt("cut attempt", in)
		if len(first) < 2 {
			continue // fewer than two oracle calls: no own rows to reuse
		}
		if _, reused := attempt("same-terminals replay", in); reused[1] != o.branch {
			t.Fatalf("%s %s: same first spider, second call reused = %v", label, o.name, reused[1])
		}
		var drop int
		for _, x := range first[0].Terms {
			if i := slices.Index(in.Terminals, x); i >= 0 && (in.Free == nil || !in.Free[i]) {
				drop = x
				break
			}
		}
		got, reused := attempt("dropped-terminal replay", withoutTerminal(in, drop))
		if len(reused) < 2 {
			continue
		}
		if want := o.branch && slices.Equal(got[0].Nodes, first[0].Nodes); reused[1] != want {
			t.Fatalf("%s %s: first spider %v after %v, second call reused = %v, want %v",
				label, o.name, got[0].Nodes, first[0].Nodes, reused[1], want)
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
			KleinRaviOracle,
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
		pooled := NewStatePool(in).Get(in.Terminals, nil)
		o.oracle(pooled, 3)
		if got := testing.AllocsPerRun(20, func() { o.oracle(pooled, 3) }); got != 2 {
			t.Errorf("%s pooled at step 0: %v allocs per call, want 2", o.name, got)
		}
	}
}

// TestBranchLegsSubnormalTie pins the pruning of dominated forked legs
// where halving rounds. Center 0 reaches hubs 1 and 2, each adjacent to
// both paying terminals 3 and 4, so the forked legs through them cost
// 4 and 3 units of the smallest subnormal: the later leg is cheaper,
// but 3/2 rounds to 2 like 4/2. At nu = 2 the legs tie and the earlier
// one wins, so the later leg must not retire it, and the leg greedy
// picks hub 1. Every ratio here is within 1e-15 of every other, so
// center 0's first candidate wins the fold, and a prune on cost alone
// would return hub 2's spider instead.
func TestBranchLegsSubnormalTie(t *testing.T) {
	u := math.SmallestNonzeroFloat64
	if 3*u >= 4*u || 3*u/2 != 4*u/2 {
		t.Fatal("the instance needs c1 < c2 with c1/2 == c2/2")
	}
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}} {
		g.AddEdge(e[0], e[1], 0)
	}
	in := Instance{G: g, Weights: []float64{0, 4 * u, 3 * u, 0, 0}, Terminals: []int{3, 4}}
	wide := engine.New(4)
	for _, o := range []oracleCase{
		{"legs/w1", branchLegs(nil), naiveBranchLegs, true},
		{"legs/w4", branchLegs(wide), naiveBranchLegs, true},
	} {
		for minCover := 1; minCover <= 2; minCover++ {
			want, okW := o.naive(NewState(in), minCover)
			if !okW || !slices.Equal(want.Nodes, []int{0, 1, 3, 4}) {
				t.Fatalf("%s minCover %d: the reference picked %+v, want hub 1's spider", o.name, minCover, want)
			}
			pooled := NewStatePool(in).Get(in.Terminals, nil)
			for _, st := range []*State{NewState(in), pooled} {
				got, okG := o.got(st, minCover)
				if okG != okW || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s minCover %d:\ngot  %+v (%v)\nwant %+v (%v)", o.name, minCover, got, okG, want, okW)
				}
			}
		}
	}
}

// TestBranchLegsAssociation pins the association of a forked leg's
// cost, (dv[u] + du[t1]) + du[t2], which the hub table must keep.
// Center 0 reaches hubs 1 and 2, each of weight 1. Hub 1 reaches the
// paying terminals 3 and 4 through nodes 5 and 6 of weight 2⁻⁵³ each;
// hub 2 is adjacent to both. Summed center→hub first, hub 1's leg costs
// (1 + 2⁻⁵³) + 2⁻⁵³ = 1, a tie with hub 2's, and the earlier leg, hub
// 1's, is picked; summing the forks first gives 1 + 2⁻⁵² and picks hub
// 2. Covering both terminals costs at least 1, so with minCover 2 every
// candidate's ratio is within 1e-15 of 1/2, and center 0's first
// candidate wins the fold.
func TestBranchLegsAssociation(t *testing.T) {
	e := math.Ldexp(1, -53)
	if (1+e)+e == 1+(e+e) {
		t.Fatal("the instance needs the two associations to round apart")
	}
	g := graph.New(7)
	for _, ed := range [][2]int{{0, 1}, {0, 2}, {1, 5}, {5, 3}, {1, 6}, {6, 4}, {2, 3}, {2, 4}} {
		g.AddEdge(ed[0], ed[1], 0)
	}
	in := Instance{G: g, Weights: []float64{0, 1, 1, 0, 0, e, e}, Terminals: []int{3, 4}}
	wide := engine.New(4)
	for _, o := range []oracleCase{
		{"legs/w1", branchLegs(nil), naiveBranchLegs, true},
		{"legs/w4", branchLegs(wide), naiveBranchLegs, true},
	} {
		want, okW := o.naive(NewState(in), 2)
		if !okW || !slices.Equal(want.Nodes, []int{0, 1, 3, 4, 5, 6}) {
			t.Fatalf("%s: the reference picked %+v, want hub 1's spider", o.name, want)
		}
		pooled := NewStatePool(in).Get(in.Terminals, nil)
		for _, st := range []*State{NewState(in), pooled} {
			got, okG := o.got(st, 2)
			if okG != okW || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\ngot  %+v (%v)\nwant %+v (%v)", o.name, got, okG, want, okW)
			}
		}
	}
}

// TestBranchLegsUnionOrder pins the order of the offered leg union when
// the greedy picks a single leg after a forked one: single legs come
// first, with the cost summed in that order. Center 0's first pick is
// the forked leg through hub 1 (nodes 1, 2, 3 of weight 2⁻⁵³ each) to
// terminals 5 and 6, its second the single leg through node 4 of weight
// 1 to terminal 7. In the union's order the cost is 1 + 2⁻⁵³ + 2⁻⁵³ +
// 2⁻⁵³, which rounds to 1; appending the single leg after the fork
// sums 3·2⁻⁵³ + 1 instead and rounds up. Every spider covering all
// three terminals costs at least 1, so center 0's candidate wins the
// fold at minCover 3.
func TestBranchLegsUnionOrder(t *testing.T) {
	e := math.Ldexp(1, -53)
	if ((1+e)+e)+e == ((e+e)+e)+1 {
		t.Fatal("the instance needs the two orders to round apart")
	}
	g := graph.New(8)
	for _, ed := range [][2]int{{0, 1}, {1, 2}, {2, 5}, {1, 3}, {3, 6}, {0, 4}, {4, 7}} {
		g.AddEdge(ed[0], ed[1], 0)
	}
	in := Instance{G: g, Weights: []float64{0, e, e, e, 1, 0, 0, 0}, Terminals: []int{5, 6, 7}}
	wide := engine.New(4)
	for _, o := range []oracleCase{
		{"legs/w1", branchLegs(nil), naiveBranchLegs, true},
		{"legs/w4", branchLegs(wide), naiveBranchLegs, true},
	} {
		want, okW := o.naive(NewState(in), 3)
		if !okW || want.Center != 0 || want.Cost != 1 {
			t.Fatalf("%s: the reference picked %+v, want center 0's spider of cost 1", o.name, want)
		}
		pooled := NewStatePool(in).Get(in.Terminals, nil)
		for _, st := range []*State{NewState(in), pooled} {
			got, okG := o.got(st, 3)
			if okG != okW || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\ngot  %+v (%v)\nwant %+v (%v)", o.name, got, okG, want, okW)
			}
		}
	}
}
