package universal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mech"
)

// costSubsets lists the receiver sets the bitwise Cost check covers: ∅,
// every singleton, random subsets in random order (the source
// included at times), and every station.
func costSubsets(rng *rand.Rand, n int) [][]int {
	sets := [][]int{nil}
	for v := 0; v < n; v++ {
		sets = append(sets, []int{v})
	}
	for t := 0; t < 40; t++ {
		sets = append(sets, rng.Perm(n)[:1+rng.Intn(n)])
	}
	return append(sets, rng.Perm(n))
}

// checkCostBits requires Cost(R) to equal the power total of the
// assignment AssignmentForTree induces on Multicast(R), bit for bit.
func checkCostBits(t *testing.T, name string, ut *Tree, rng *rand.Rand) {
	t.Helper()
	for _, R := range costSubsets(rng, ut.Net.N()) {
		got := ut.Cost(R)
		want := ut.Net.AssignmentForTree(ut.Multicast(R)).Total()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Cost(%v) = %x, assignment total %x", name, R, got, want)
		}
	}
}

// TestCostMatchesAssignmentTotal: the pooled one-pass Cost computes the
// same bits as pruning the tree and totalling its induced assignment, on
// every scenario family under both universal trees, and on a network
// with disabled stations, for a tree built before the stations went
// down (Cost reads the current DisabledCost rows) and one built after.
func TestCostMatchesAssignmentTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for si, sc := range instances.Scenarios() {
		for _, n := range []int{5, 12} {
			nw, err := instances.Spec{Scenario: sc.Name, N: n, Alpha: 2, Seed: int64(10*si + n)}.Build()
			if err != nil {
				t.Fatal(err)
			}
			checkCostBits(t, sc.Name+" SPT", SPT(nw), rng)
			checkCostBits(t, sc.Name+" MST", MST(nw), rng)
		}
	}
	nw, err := instances.Spec{Scenario: "uniform", N: 14, Alpha: 2, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := SPT(nw)
	for _, v := range []int{3, 7, 11} {
		if _, err := nw.SetStationEnabled(v, false); err != nil {
			t.Fatal(err)
		}
	}
	checkCostBits(t, "tree before disable", before, rng)
	checkCostBits(t, "tree after disable", SPT(nw), rng)
}

// TestCostConcurrent: goroutines pricing subsets of two trees of
// different sizes at once share the scratch pool and still get the
// serial bits.
func TestCostConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type job struct {
		ut   *Tree
		R    []int
		want float64
	}
	var jobs []job
	for _, n := range []int{9, 24} {
		nw, err := instances.Spec{Scenario: "uniform", N: n, Alpha: 2, Seed: int64(n)}.Build()
		if err != nil {
			t.Fatal(err)
		}
		ut := SPT(nw)
		for _, R := range costSubsets(rng, n) {
			jobs = append(jobs, job{ut, R, ut.Net.AssignmentForTree(ut.Multicast(R)).Total()})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for _, j := range jobs {
					if got := j.ut.Cost(j.R); math.Float64bits(got) != math.Float64bits(j.want) {
						t.Errorf("goroutine %d: Cost(%v) = %x, want %x", g, j.R, got, j.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCostAllocatesNothing: a warm Cost, and a warm Prefixes walk, run
// on pooled scratch.
func TestCostAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	nw, err := instances.Spec{Scenario: "uniform", N: 32, Alpha: 2, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ut := SPT(nw)
	R := nw.AllReceivers()[:20]
	ut.Cost(R)
	if got := testing.AllocsPerRun(100, func() { ut.Cost(R) }); got != 0 {
		t.Fatalf("warm Cost allocates %v per call, want 0", got)
	}
	out := make([]float64, len(R))
	if got := testing.AllocsPerRun(100, func() { ut.Prefixes(R, out) }); got != 0 {
		t.Fatalf("warm Prefixes allocates %v per call, want 0", got)
	}
}

// prefixOrders lists the orders the prefix walk is checked on: random
// orders of random station subsets (the source included at times) and
// random orders of every station.
func prefixOrders(rng *rand.Rand, n int) [][]int {
	var orders [][]int
	for t := 0; t < 20; t++ {
		orders = append(orders, rng.Perm(n)[:1+rng.Intn(n)])
	}
	for t := 0; t < 5; t++ {
		orders = append(orders, rng.Perm(n))
	}
	return orders
}

// checkPrefixBits requires Prefixes to price every prefix of every order
// with the bits of Cost on the sorted prefix.
func checkPrefixBits(t *testing.T, name string, ut *Tree, rng *rand.Rand) {
	t.Helper()
	out := make([]float64, ut.Net.N())
	for _, order := range prefixOrders(rng, ut.Net.N()) {
		ut.Prefixes(order, out)
		for i := range order {
			R := slices.Sorted(slices.Values(order[:i+1]))
			if want := ut.Cost(R); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s: Prefixes(%v)[%d] = %x, Cost(%v) = %x", name, order, i, out[i], R, want)
			}
		}
	}
}

// TestPrefixesMatchCost: the one-pass prefix walk prices each prefix of
// a random order with Cost's bits, under both universal trees on every
// scenario at n = 8, 12 and 32, on a tree that leaves a station out,
// and on a network with disabled stations.
func TestPrefixesMatchCost(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for si, sc := range instances.Scenarios() {
		alphas := []float64{2}
		if sc.Euclidean {
			alphas = append(alphas, 1)
		}
		for _, alpha := range alphas {
			for _, n := range []int{8, 12, 32} {
				nw, err := instances.Spec{Scenario: sc.Name, N: n, Alpha: alpha, Seed: int64(100*si + n)}.Build()
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s α=%g n=%d", sc.Name, alpha, n)
				checkPrefixBits(t, name+" SPT", SPT(nw), rng)
				checkPrefixBits(t, name+" MST", MST(nw), rng)
			}
		}
	}

	nw, err := instances.Spec{Scenario: "uniform", N: 14, Alpha: 2, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A leaf left out of the tree: Cost skips it, and so must the walk.
	span := SPT(nw).Span
	span.Parent = slices.Clone(span.Parent)
	leaf := -1
	for v := range span.Parent {
		if v != span.Root && !slices.Contains(span.Parent, v) {
			leaf = v
			break
		}
	}
	span.Parent[leaf] = -1
	partial := FromTree(nw, span)
	if partial.Span.InTree(leaf) {
		t.Fatalf("station %d still in the tree", leaf)
	}
	checkPrefixBits(t, "tree without a leaf", partial, rng)

	before := SPT(nw)
	for _, v := range []int{3, 7, 11} {
		if _, err := nw.SetStationEnabled(v, false); err != nil {
			t.Fatal(err)
		}
	}
	checkPrefixBits(t, "tree before disable", before, rng)
	checkPrefixBits(t, "tree after disable", SPT(nw), rng)
}

// TestRunApproxAllocsIndependentOfSamples: the sampled tier of the
// Shapley mechanism walks each permutation on pooled scratch, so a
// RunApprox that serves everyone in one Moulin–Shenker round allocates
// the same at 64 and at 512 samples.
func TestRunApproxAllocsIndependentOfSamples(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	nw, err := instances.Spec{Scenario: "uniform", N: 32, Alpha: 2, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := ShapleyMechanism(SPT(nw)).(mech.ApproxRunner)
	u := mech.UniformProfile(nw.N(), 1e9)
	allocs := func(samples int) float64 {
		spec := mech.ApproxSpec{Samples: samples, Delta: 0.05, Seed: 1}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := m.RunApprox(u, spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(64), allocs(512); few != many {
		t.Fatalf("RunApprox allocates %v at 64 samples and %v at 512", few, many)
	}
}
