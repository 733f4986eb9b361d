package wmech

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/memtred"
	"wmcs/internal/nwst"
	"wmcs/internal/nwstmech"
	"wmcs/internal/wireless"
)

func TestRichProfileServesEveryoneFeasibly(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		nw := instances.RandomEuclidean(rng, 6+rng.Intn(4), 2, 2, 10)
		m := New(nw, nwst.KleinRaviOracle)
		u := mech.UniformProfile(nw.N(), 1e8)
		res := m.RunDetailed(u)
		o := res.Outcome
		if len(o.Receivers) != nw.N()-1 {
			t.Fatalf("trial %d: receivers %v, want everyone", trial, o.Receivers)
		}
		if !nw.Feasible(res.Assignment, o.Receivers) {
			t.Fatalf("trial %d: assignment infeasible", trial)
		}
		if math.Abs(res.Assignment.Total()-o.Cost) > 1e-9 {
			t.Fatalf("trial %d: cost field inconsistent", trial)
		}
		if err := errors.Join(mech.CheckNPT(o), mech.CheckVP(u, o), mech.CheckCostRecovery(o)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBetaBBAgainstExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 8; trial++ {
		nw := instances.RandomSymmetric(rng, 7, 0.5, 10)
		m := New(nw, nwst.BranchSpiderOracle)
		u := mech.UniformProfile(nw.N(), 1e8)
		o := m.Run(u)
		if len(o.Receivers) == 0 {
			t.Fatalf("trial %d: nobody served", trial)
		}
		opt, _ := wireless.ExactMEMT(nw, o.Receivers)
		k := len(o.Receivers)
		// Allow the weaker oracle bound 2·(1 + 2 ln k) as the envelope.
		bound := 2 * (1 + 2*math.Log(float64(k))) * opt
		if o.TotalShares() > bound+1e-7 {
			t.Fatalf("trial %d: shares %g exceed bound %g (opt %g, k=%d)",
				trial, o.TotalShares(), bound, opt, k)
		}
		if err := mech.CheckCostRecovery(o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAxiomsOnRandomProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 10; trial++ {
		nw := instances.RandomEuclidean(rng, 7, 2, 2, 10)
		m := New(nw, nwst.KleinRaviOracle)
		u := mech.RandomProfile(rng, nw.N(), 60)
		res := m.RunDetailed(u)
		o := res.Outcome
		if err := mech.CheckNPT(o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := mech.CheckVP(u, o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(o.Receivers) > 0 {
			if err := mech.CheckCostRecovery(o); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !nw.Feasible(res.Assignment, o.Receivers) {
				t.Fatalf("trial %d: infeasible", trial)
			}
		}
	}
}

func TestStrategyproofSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 5; trial++ {
		nw := instances.RandomEuclidean(rng, 6, 2, 2, 10)
		m := New(nw, nwst.KleinRaviOracle)
		truth := mech.RandomProfile(rng, nw.N(), 40)
		if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestConsumerSovereignty(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	nw := instances.RandomEuclidean(rng, 6, 2, 2, 10)
	m := New(nw, nwst.KleinRaviOracle)
	if err := mech.CheckCS(m, mech.RandomProfile(rng, nw.N(), 5), 1e9); err != nil {
		t.Error(err)
	}
}

func TestPoorProfileDropsEveryone(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nw := instances.RandomEuclidean(rng, 6, 2, 2, 10)
	m := New(nw, nwst.KleinRaviOracle)
	o := m.Run(mech.UniformProfile(nw.N(), 1e-12))
	if len(o.Receivers) != 0 {
		t.Fatalf("receivers = %v, want none", o.Receivers)
	}
}

func TestBetaBound(t *testing.T) {
	if BetaBound(0) != 1 || BetaBound(-1) != 1 {
		t.Error("degenerate bounds should be 1")
	}
	if got := BetaBound(9); math.Abs(got-3*math.Log(10)) > 1e-12 {
		t.Errorf("BetaBound(9) = %g", got)
	}
}

// refRunDetailed is the nested loop RunDetailed replaced, kept as its
// reference: every outer attempt runs a fresh NWST mechanism over the
// active receivers to completion and restarts on the survivors whenever
// that run dropped anyone; otherwise step (c) applies to its tree, and
// whoever cannot pay a surcharge drops before the next outer attempt.
// It also returns how many outer attempts step (c) ended.
func refRunDetailed(rd *memtred.Reduction, oracle nwst.Oracle, u mech.Profile) (Result, int) {
	nw := rd.Net
	active := nw.AllReceivers()
	surcharged := 0
	for len(active) > 0 {
		uh := make(mech.Profile, rd.G.N())
		for _, r := range active {
			uh[rd.In[r]] = u[r]
		}
		det := nwstmech.New(rd.Instance(active), oracle).RunDetailed(uh)
		var served []int
		shares := map[int]float64{}
		for _, t := range det.Outcome.Receivers {
			served = append(served, rd.Station(t))
			shares[rd.Station(t)] = det.Outcome.Shares[t]
		}
		sort.Ints(served)
		if len(served) == 0 {
			break
		}
		if len(served) < len(active) {
			active = served
			continue
		}
		ex := rd.Extract(det.Nodes, served)
		down := ex.DownstreamReceivers(nw.N(), served)
		var dropped []int
		for i := len(ex.Order) - 1; i >= 0 && len(dropped) == 0; i-- {
			xi := ex.Order[i]
			ni := down[xi]
			if ex.Pi[xi] <= ex.PiNWST[xi]+eps || len(ni) == 0 {
				continue
			}
			slice := ex.Pi[xi] / float64(len(ni))
			for _, xj := range ni {
				if u[xj]-shares[xj] < slice-eps {
					dropped = append(dropped, xj)
				}
			}
			if len(dropped) == 0 {
				for _, xj := range ni {
					shares[xj] += slice
				}
			}
		}
		if len(dropped) == 0 {
			return Result{
				Outcome:    mech.Outcome{Receivers: served, Shares: shares, Cost: ex.Pi.Total()},
				Assignment: ex.Pi,
			}, surcharged
		}
		surcharged++
		var keep []int
		for _, r := range active {
			if !slices.Contains(dropped, r) {
				keep = append(keep, r)
			}
		}
		active = keep
	}
	return Result{
		Outcome:    mech.Outcome{Shares: map[int]float64{}},
		Assignment: make(wireless.Assignment, nw.N()),
	}, surcharged
}

// sameResult reports bitwise equality of receivers, shares, cost and
// assignment.
func sameResult(a, b Result) bool {
	if !slices.Equal(a.Outcome.Receivers, b.Outcome.Receivers) ||
		math.Float64bits(a.Outcome.Cost) != math.Float64bits(b.Outcome.Cost) ||
		len(a.Outcome.Shares) != len(b.Outcome.Shares) ||
		len(a.Assignment) != len(b.Assignment) {
		return false
	}
	for r, s := range a.Outcome.Shares {
		if t, ok := b.Outcome.Shares[r]; !ok || math.Float64bits(s) != math.Float64bits(t) {
			return false
		}
	}
	for i := range a.Assignment {
		if math.Float64bits(a.Assignment[i]) != math.Float64bits(b.Assignment[i]) {
			return false
		}
	}
	return true
}

// TestRunDetailedMatchesNestedLoop pins the one restart loop bitwise to
// the nested loop it replaced, over seeded uniform-workload queries
// folded into R the way serving folds them, on both spider oracles. One
// mechanism per configuration serves every query of its network, so memo
// replays across queries are covered; a fresh mechanism per query
// replays nothing, since within one run each pass's active set is
// strictly smaller than the last and no memo key repeats.
func TestRunDetailedMatchesNestedLoop(t *testing.T) {
	uniform, err := instances.WorkloadByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	const perNetwork = 24
	surcharged := 0
	for _, scenario := range []string{"uniform", "symmetric", "clustered"} {
		for _, n := range []int{6, 8, 10} {
			nw, err := instances.Spec{Scenario: scenario, N: n, Alpha: 2, Seed: int64(n)}.Build()
			if err != nil {
				t.Fatal(err)
			}
			rd := memtred.New(nw)
			sampler := uniform.New(rand.New(rand.NewSource(int64(n))), nw, instances.WorkloadOptions{})
			profiles := make([]mech.Profile, perNetwork)
			for i := range profiles {
				q := sampler.Next()
				profiles[i] = make(mech.Profile, n)
				for _, r := range q.R {
					profiles[i][r] = q.U[r]
				}
			}
			for _, oracle := range []struct {
				name string
				o    nwst.Oracle
			}{{"branch", nwst.BranchSpiderOracle}, {"klein-ravi", nwst.KleinRaviOracle}} {
				memo := NewFromReduction(rd, oracle.o)
				for i, u := range profiles {
					want, s := refRunDetailed(rd, oracle.o, u)
					surcharged += s
					for _, m := range []struct {
						name string
						m    *Mechanism
					}{{"memo", memo}, {"fresh", NewFromReduction(rd, oracle.o)}} {
						if got := m.m.RunDetailed(u); !sameResult(got, want) {
							t.Fatalf("%s n=%d %s %s profile %d: RunDetailed diverges from the nested loop\ngot:  %+v\nwant: %+v",
								scenario, n, oracle.name, m.name, i, got, want)
						}
					}
				}
			}
		}
	}
	if surcharged == 0 {
		t.Fatal("no step (c) drop in the sweep: it no longer covers the surcharge restart")
	}
}
