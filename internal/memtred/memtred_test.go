package memtred

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/instances"
	"wmcs/internal/nwst"
	"wmcs/internal/wireless"
)

// tiedSym builds a symmetric network of n stations whose costs are drawn
// from {1..k}, so every row repeats costs and stations share levels.
// With off set it also disables one station other than the source,
// whose row then reads wireless.DisabledCost throughout, as the row of
// a station that a churn model switched off does.
func tiedSym(t *testing.T, rng *rand.Rand, n, k int, off bool) *wireless.Network {
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

// tied is a tie-heavy network and the k its costs were drawn for.
type tied struct {
	nw *wireless.Network
	k  int
}

// tiedSyms returns tie-heavy networks: costs from {1..k} for k ∈ {1, 2,
// 4}, n from 2 to 10, and each once more with a station disabled.
func tiedSyms(t *testing.T, seed int64) []tied {
	rng := rand.New(rand.NewSource(seed))
	var out []tied
	for _, k := range []int{1, 2, 4} {
		for n := 2; n <= 10; n++ {
			out = append(out, tied{tiedSym(t, rng, n, k, false), k}, tied{tiedSym(t, rng, n, k, true), k})
		}
	}
	return out
}

// requirePaperRule checks rd against the §2.2.1 rule read off the cost
// matrix, independently of how the reduction was built: station i's
// output weights are row i's distinct costs ascending; output (i, m)
// lists In(i), then each In(j), j ≠ i ascending, with Cᵐ_i ≥ c(i, j);
// and input j lists, per station in order, the outputs whose weight
// reaches it (c(j, j) = 0, so all of its own).
func requirePaperRule(t *testing.T, label string, rd *Reduction) {
	t.Helper()
	nw, n := rd.Net, rd.Net.N()
	edges, nodes := 0, n
	for i := 0; i < n; i++ {
		var levels, got []float64
		for j := 0; j < n; j++ {
			if j != i && !slices.Contains(levels, nw.C(i, j)) {
				levels = append(levels, nw.C(i, j))
			}
		}
		slices.Sort(levels)
		for _, o := range rd.OutNodes[i] {
			got = append(got, rd.Weights[o])
		}
		if !slices.Equal(got, levels) {
			t.Fatalf("%s: station %d's output weights %v, its distinct costs %v", label, i, got, levels)
		}
		nodes += len(levels)
		for _, o := range rd.OutNodes[i] {
			want := []graph.Edge{{From: o, To: rd.In[i]}}
			for j := 0; j < n; j++ {
				if j != i && rd.Weights[o] >= nw.C(i, j) {
					want = append(want, graph.Edge{From: o, To: rd.In[j]})
				}
			}
			if got := rd.G.Neighbors(o); !slices.Equal(got, want) {
				t.Fatalf("%s: output %d of station %d lists %v, want %v", label, o, i, got, want)
			}
			edges += len(want)
		}
	}
	for j := 0; j < n; j++ {
		var want []graph.Edge
		for i := 0; i < n; i++ {
			for _, o := range rd.OutNodes[i] {
				if rd.Weights[o] >= nw.C(i, j) {
					want = append(want, graph.Edge{From: rd.In[j], To: o})
				}
			}
		}
		if got := rd.G.Neighbors(rd.In[j]); !slices.Equal(got, want) {
			t.Fatalf("%s: input of station %d lists %v, want %v", label, j, got, want)
		}
	}
	if rd.G.N() != nodes || rd.G.M() != edges {
		t.Fatalf("%s: %d nodes and %d edges, the rule makes %d and %d", label, rd.G.N(), rd.G.M(), nodes, edges)
	}
}

func TestReductionStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nets := []*wireless.Network{instances.RandomEuclidean(rng, 5, 2, 2, 10)}
	for _, tn := range tiedSyms(t, 2) {
		nets = append(nets, tn.nw)
	}
	for k, nw := range nets {
		rd := New(nw)
		n := nw.N()
		// n input nodes plus ≤ n−1 output nodes per station.
		if got := rd.G.N(); got > n+n*(n-1) || got < 2*n {
			t.Fatalf("network %d: node count %d out of range", k, got)
		}
		for i := 0; i < n; i++ {
			if rd.Weights[rd.In[i]] != 0 {
				t.Errorf("network %d: input node of %d has weight %g", k, i, rd.Weights[rd.In[i]])
			}
			if rd.Station(rd.In[i]) != i {
				t.Errorf("network %d: station mapping wrong for input %d", k, i)
			}
			prev := -1.0
			for _, o := range rd.OutNodes[i] {
				if rd.Station(o) != i {
					t.Errorf("network %d: station mapping wrong for output of %d", k, i)
				}
				if rd.Weights[o] <= prev {
					t.Errorf("network %d: output weights of %d not strictly increasing", k, i)
				}
				prev = rd.Weights[o]
			}
		}
		requirePaperRule(t, fmt.Sprintf("network %d (n=%d)", k, n), rd)
	}
}

func TestInstanceTerminals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nw := instances.RandomEuclidean(rng, 6, 2, 2, 10)
	rd := New(nw)
	R := []int{2, 4}
	in := rd.Instance(R)
	if len(in.Terminals) != 3 || !in.Free[0] || in.Free[1] || in.Free[2] {
		t.Fatalf("terminals %v free %v", in.Terminals, in.Free)
	}
	if in.Terminals[0] != rd.In[nw.Source()] {
		t.Error("first terminal must be the source input")
	}
}

// End-to-end: solve NWST on the reduction, extract, and verify the power
// assignment multicasts to R with cost at most twice the NWST solution
// (the §2.2.1 accounting) and at least the true optimum.
func TestReductionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		nw := instances.RandomEuclidean(rng, 5+rng.Intn(4), 2, 1+rng.Float64()*3, 10)
		var R []int
		for _, v := range nw.AllReceivers() {
			if rng.Float64() < 0.6 {
				R = append(R, v)
			}
		}
		if len(R) == 0 {
			R = []int{1}
		}
		rd := New(nw)
		sol, ok := nwst.Solve(rd.Instance(R), nwst.KleinRaviOracle)
		if !ok {
			t.Fatalf("trial %d: NWST solve failed", trial)
		}
		ex := rd.Extract(sol.Nodes, R)
		if !nw.Feasible(ex.Pi, R) {
			t.Fatalf("trial %d: extracted assignment infeasible", trial)
		}
		if ex.Pi.Total() > 2*sol.Cost+1e-9 {
			t.Fatalf("trial %d: power %g exceeds 2×NWST cost %g", trial, ex.Pi.Total(), sol.Cost)
		}
		opt, _ := wireless.ExactMEMT(nw, R)
		if ex.Pi.Total() < opt-1e-9 {
			t.Fatalf("trial %d: power %g beats optimum %g", trial, ex.Pi.Total(), opt)
		}
		// π′ never exceeds π on stations that transmit, and both vanish on
		// stations outside the tree.
		for i := 0; i < nw.N(); i++ {
			if ex.Pi[i] > 0 && ex.PiNWST[i] > ex.Pi[i]+1e-9 {
				// π′ can exceed π when pruning removed heavy outputs from a
				// station that still transmits cheaply — but never when the
				// station's heaviest surviving output is what the BFS used.
				// Accept but require π′ to be a chosen output weight.
				found := false
				for _, o := range rd.OutNodes[i] {
					if math.Abs(rd.Weights[o]-ex.PiNWST[i]) < 1e-12 {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: π′[%d]=%g is not an output weight", trial, i, ex.PiNWST[i])
				}
			}
		}
	}
}

func TestExactOptimalityGap(t *testing.T) {
	// The NWST optimum on the reduction is within the 2× accounting of
	// the true MEMT optimum: OPT_NWST ≤ OPT_MEMT (the multicast tree's
	// powers are a feasible NWST choice), so any ρ-approximate NWST
	// solution extracts to a 2ρ-approximate assignment.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		nw := instances.RandomEuclidean(rng, 5, 2, 2, 10)
		R := nw.AllReceivers()
		rd := New(nw)
		in := rd.Instance(R)
		optN, ok := nwst.ExactSmall(in, 20)
		if !ok {
			t.Fatal("exact NWST failed")
		}
		optM, _ := wireless.ExactMEMT(nw, R)
		if optN > optM+1e-9 {
			t.Fatalf("trial %d: NWST optimum %g exceeds MEMT optimum %g", trial, optN, optM)
		}
	}
}

func TestDownstreamReceivers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := instances.RandomEuclidean(rng, 6, 2, 2, 10)
	R := []int{1, 2, 3, 4, 5}
	rd := New(nw)
	sol, ok := nwst.Solve(rd.Instance(R), nwst.KleinRaviOracle)
	if !ok {
		t.Fatal("solve failed")
	}
	ex := rd.Extract(sol.Nodes, R)
	down := ex.DownstreamReceivers(nw.N(), R)
	// The source must see every receiver downstream.
	got := down[nw.Source()]
	if len(got) != len(R) {
		t.Fatalf("source downstream = %v want all of %v", got, R)
	}
	// Downstream sets never contain the station itself.
	for v, set := range down {
		for _, w := range set {
			if w == v {
				t.Fatalf("station %d is in its own downstream set", v)
			}
		}
	}
}
