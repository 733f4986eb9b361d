package universal

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"wmcs/internal/instances"
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

// TestCostAllocatesNothing: a warm Cost runs on pooled scratch.
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
}
