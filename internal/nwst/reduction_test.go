package nwst_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/instances"
	"wmcs/internal/memtred"
	"wmcs/internal/nwst"
	"wmcs/internal/wireless"
)

// The tests in this file run the sweep and oracle checks of package
// nwst on MEMT→NWST reduction graphs (internal/memtred), where every
// sweep goes through the graph's chain description. The random graphs of
// the internal tests have none, so only these tests see the chain rules.

// reduction is one reduction graph under test with a receiver set.
type reduction struct {
	label string
	rd    *memtred.Reduction
	R     []int
}

// network builds one network of a registered scenario.
func network(t *testing.T, scenario string, n int, seed int64) *wireless.Network {
	t.Helper()
	nw, err := instances.Spec{Scenario: scenario, N: n, Alpha: 2, Seed: seed}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// someReceivers draws a random receiver set of at least two stations
// (all of them when the network has fewer).
func someReceivers(rng *rand.Rand, nw *wireless.Network) []int {
	all := nw.AllReceivers()
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	R := all[:min(len(all), 2+rng.Intn(len(all)))]
	slices.Sort(R)
	return R
}

// rebuilt returns a memtred.Rebuild reduction of nw after one SetCost,
// and the network it describes. It tries pairs in turn until Rebuild
// takes the incremental path.
func rebuilt(t *testing.T, nw *wireless.Network) (*memtred.Reduction, *wireless.Network) {
	t.Helper()
	prev := memtred.New(nw)
	for i := 1; i < nw.N(); i++ {
		work := nw.Snapshot()
		if _, err := work.SetCost(i, (i+1)%nw.N(), work.C(i, (i+1)%nw.N())*1.1); err != nil {
			t.Fatal(err)
		}
		if rd := memtred.Rebuild(prev, work, work.TakeDelta().DirtyRows); rd != nil {
			return rd, work
		}
	}
	t.Fatal("memtred.Rebuild fell back to New for every pair")
	return nil, nil
}

// reductions returns a reduction of one network of every registered
// scenario at each size, with a random receiver set, and a Rebuild
// reduction after one SetCost on a symmetric network of the first size
// (SetCost takes only non-Euclidean costs).
func reductions(t *testing.T, sizes []int, seed int64) []reduction {
	rng := rand.New(rand.NewSource(seed))
	var out []reduction
	for _, n := range sizes {
		for _, sc := range instances.ScenarioNames() {
			nw := network(t, sc, n, seed+int64(n))
			out = append(out, reduction{fmt.Sprintf("%s n=%d", sc, n), memtred.New(nw), someReceivers(rng, nw)})
		}
	}
	rd, nw := rebuilt(t, network(t, "symmetric", sizes[0], seed))
	return append(out, reduction{fmt.Sprintf("rebuilt symmetric n=%d", sizes[0]), rd, someReceivers(rng, nw)})
}

// TestReductionSweepsMatchDecreaseKey is TestSweepMatchesDecreaseKey on
// reduction graphs: whole rows from every vertex against refDijkstra,
// exhaustive and stopped, before and after every Shrink of a greedy
// run.
func TestReductionSweepsMatchDecreaseKey(t *testing.T) {
	for _, c := range reductions(t, []int{4, 6, 9, 12}, 71) {
		st := nwst.NewState(c.rd.Instance(c.R))
		if !nwst.Described(st) {
			t.Fatalf("%s: the state has no chain description", c.label)
		}
		nwst.CheckSweeps(t, fmt.Sprintf("%s R=%v", c.label, c.R), st)
	}
}

// TestReductionOraclesMatchSerial is TestParallelOraclesMatchSerial on
// reduction instances: both oracles at widths 1 and 4 against their
// naive references, on fresh and pooled states, with the cut attempts
// and replays that reuse a state's own rows.
func TestReductionOraclesMatchSerial(t *testing.T) {
	for _, c := range reductions(t, []int{6, 9}, 73) {
		nwst.CheckOracles(t, fmt.Sprintf("%s R=%v", c.label, c.R), c.rd.Instance(c.R))
	}
}

// tiedNetwork builds a symmetric network of n stations whose costs are
// drawn from {1..k}, so stations repeat costs and share levels. With off
// set it also disables one station other than the source, whose row then
// reads wireless.DisabledCost throughout.
func tiedNetwork(t *testing.T, rng *rand.Rand, n, k int, off bool) *wireless.Network {
	t.Helper()
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, float64(1+rng.Intn(k)))
		}
	}
	nw := wireless.NewSymmetric(m, 0)
	if off {
		if _, err := nw.SetStationEnabled(1+rng.Intn(n-1), false); err != nil {
			t.Fatal(err)
		}
		nw.TakeDelta()
	}
	return nw
}

// TestChainsDescribeReductions pins the description memtred hands the
// sweep: on New and Rebuild reductions it implies each base adjacency
// list exactly, in order, and records its length, and a Rebuild
// reduction is described exactly as New describes the same network. Its inputs are a network of every
// scenario, and tie-heavy networks (costs from {1..k}, k ∈ {1, 2, 4}, n
// from 2 to 10, some with a station disabled) rewritten with costs from
// the same set, so that some rebuilds keep the level counts and some
// bail.
func TestChainsDescribeReductions(t *testing.T) {
	requireImplied := func(label string, rd *memtred.Reduction) {
		t.Helper()
		c := rd.Chains()
		for v := 0; v < rd.G.N(); v++ {
			var got []int
			for _, e := range rd.G.Neighbors(v) {
				got = append(got, e.To)
			}
			if want := c.ImpliedNeighbors(v); !slices.Equal(got, want) {
				t.Fatalf("%s vertex %d: adjacency %v, the description implies %v", label, v, got, want)
			}
			if d := c.BaseDegree(v); d != len(got) {
				t.Fatalf("%s vertex %d: degree %d, the description records %d", label, v, len(got), d)
			}
		}
	}
	requireRebuilt := func(label string, rd *memtred.Reduction, work *wireless.Network) {
		t.Helper()
		requireImplied(label, rd)
		if !reflect.DeepEqual(rd.Chains(), memtred.New(work).Chains()) {
			t.Fatalf("%s: the Rebuild reduction is described differently from New's", label)
		}
	}
	for _, sc := range instances.ScenarioNames() {
		for _, n := range []int{2, 5, 12} {
			requireImplied(fmt.Sprintf("%s n=%d", sc, n), memtred.New(network(t, sc, n, int64(n))))
		}
	}
	for _, n := range []int{5, 9, 12} {
		rd, work := rebuilt(t, network(t, "symmetric", n, int64(n)))
		requireRebuilt(fmt.Sprintf("rebuilt symmetric n=%d", n), rd, work)
	}

	rng := rand.New(rand.NewSource(17))
	kept, bailed := 0, 0
	for _, k := range []int{1, 2, 4} {
		for n := 2; n <= 10; n++ {
			for _, off := range []bool{false, true} {
				nw := tiedNetwork(t, rng, n, k, off)
				label := fmt.Sprintf("tied k=%d n=%d off=%v", k, n, off)
				prev := memtred.New(nw)
				requireImplied(label, prev)
				var on []int
				for i := 0; i < n; i++ {
					if nw.StationEnabled(i) {
						on = append(on, i)
					}
				}
				for trial := 0; trial < 6 && len(on) > 1; trial++ {
					work := nw.Snapshot()
					i, j := on[rng.Intn(len(on))], on[rng.Intn(len(on))]
					for j == i {
						j = on[rng.Intn(len(on))]
					}
					if _, err := work.SetCost(i, j, float64(1+rng.Intn(k))); err != nil {
						t.Fatal(err)
					}
					rd := memtred.Rebuild(prev, work, work.TakeDelta().DirtyRows)
					if rd == nil {
						bailed++
						continue
					}
					kept++
					requireRebuilt(fmt.Sprintf("%s rebuilt after c(%d,%d) = %g", label, i, j, work.C(i, j)), rd, work)
				}
			}
		}
	}
	if kept == 0 || bailed == 0 {
		t.Fatalf("tied networks: %d incremental rebuilds and %d fallbacks; the inputs must take both paths", kept, bailed)
	}
}
