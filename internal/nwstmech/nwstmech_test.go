package nwstmech

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/nwst"
)

func TestFig1TruthfulReplay(t *testing.T) {
	inst, truth, _ := instances.Fig1NWST(0.01)
	m := New(inst, nwst.KleinRaviOracle)
	o := m.Run(truth)
	if len(o.Receivers) != 4 {
		t.Fatalf("receivers = %v, want all four terminals", o.Receivers)
	}
	// Paper's walkthrough: c1 = c5 = c7 = 3/2 and c6 = 3/2.
	for _, i := range o.Receivers {
		if math.Abs(o.Shares[i]-1.5) > 1e-9 {
			t.Errorf("share[%d] = %g want 1.5", i, o.Shares[i])
		}
	}
	// Welfares: w1 = w5 = w6 = 3/2, w7 = 0.
	for _, i := range []int{instances.Fig1T1, instances.Fig1T5, instances.Fig1T6} {
		if got := o.Welfare(truth, i); math.Abs(got-1.5) > 1e-9 {
			t.Errorf("welfare[%d] = %g want 1.5", i, got)
		}
	}
	if got := o.Welfare(truth, instances.Fig1T7); math.Abs(got) > 1e-9 {
		t.Errorf("welfare[7] = %g want 0", got)
	}
	// Solution cost: spider Sp2 (3) plus connector (3) = 6.
	if math.Abs(o.Cost-6) > 1e-9 {
		t.Errorf("cost = %g want 6", o.Cost)
	}
}

func TestFig1CollusionReplay(t *testing.T) {
	inst, truth, collude := instances.Fig1NWST(0.01)
	m := New(inst, nwst.KleinRaviOracle)
	o := m.Run(collude)
	// x7 is dropped; the rest are served through spider Sp1 at ratio 4/3.
	if len(o.Receivers) != 3 || o.IsReceiver(instances.Fig1T7) {
		t.Fatalf("receivers = %v, want {1,5,6} without 7", o.Receivers)
	}
	for _, i := range o.Receivers {
		if math.Abs(o.Shares[i]-4.0/3) > 1e-9 {
			t.Errorf("share[%d] = %g want 4/3", i, o.Shares[i])
		}
	}
	// The coalition weakly improves: colluders go from 3/2 to 5/3, x7
	// stays at 0 — the mechanism is not group strategyproof.
	honest := m.Run(truth)
	improved := 0
	for _, i := range []int{instances.Fig1T1, instances.Fig1T5, instances.Fig1T6, instances.Fig1T7} {
		wDev, wTruth := o.Welfare(truth, i), honest.Welfare(truth, i)
		if wDev < wTruth-1e-9 {
			t.Fatalf("coalition member %d made worse off (%g < %g)", i, wDev, wTruth)
		}
		if wDev > wTruth+1e-9 {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("collusion should strictly help someone")
	}
}

func TestFig1Strategyproof(t *testing.T) {
	inst, truth, _ := instances.Fig1NWST(0.01)
	m := New(inst, nwst.KleinRaviOracle)
	if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
		t.Error(err)
	}
}

func randomNWST(rng *rand.Rand, n, k int) nwst.Instance {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), 0)
	}
	for e := 0; e < n/2; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 0)
		}
	}
	w := make([]float64, n)
	terms := rng.Perm(n)[:k]
	isTerm := make([]bool, n)
	for _, t := range terms {
		isTerm[t] = true
	}
	for v := 0; v < n; v++ {
		if !isTerm[v] {
			w[v] = rng.Float64()*4 + 0.1
		}
	}
	return nwst.Instance{G: g, Weights: w, Terminals: terms}
}

func TestRandomAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		in := randomNWST(rng, 8+rng.Intn(6), 3+rng.Intn(3))
		m := New(in, nwst.BranchSpiderOracle)
		u := mech.RandomProfile(rng, in.G.N(), 8)
		o := m.Run(u)
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
		}
	}
}

func TestRandomStrategyproof(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		in := randomNWST(rng, 9, 4)
		m := New(in, nwst.KleinRaviOracle)
		truth := mech.RandomProfile(rng, in.G.N(), 6)
		if err := mech.CheckStrategyproof(m, truth, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestConsumerSovereignty(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	in := randomNWST(rng, 9, 4)
	m := New(in, nwst.BranchSpiderOracle)
	u := mech.UniformProfile(in.G.N(), 1e7) // everyone rich: all served
	o := m.Run(u)
	if len(o.Receivers) != len(m.Agents()) {
		t.Fatalf("rich profile should serve everyone: %v", o.Receivers)
	}
	if err := mech.CheckCS(m, mech.RandomProfile(rng, in.G.N(), 3), 1e9); err != nil {
		t.Error(err)
	}
}

func TestBetaBBAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		in := randomNWST(rng, 9, 4)
		m := New(in, nwst.BranchSpiderOracle)
		u := mech.UniformProfile(in.G.N(), 1e7)
		o := m.Run(u)
		if len(o.Receivers) != 4 {
			t.Fatalf("trial %d: not everyone served", trial)
		}
		opt, ok := nwst.ExactSmall(in, 18)
		if !ok {
			t.Fatal("exact failed")
		}
		k := float64(len(o.Receivers))
		bound := (1 + 2*math.Log(k)) * opt
		if o.TotalShares() > bound+1e-7 {
			t.Fatalf("trial %d: shares %g exceed β bound %g (opt %g)", trial, o.TotalShares(), bound, opt)
		}
		if o.TotalShares() < o.Cost-1e-7 {
			t.Fatalf("trial %d: cost recovery failed", trial)
		}
	}
}

func TestRunDetailedNodesConnectReceivers(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	in := randomNWST(rng, 10, 4)
	m := New(in, nwst.KleinRaviOracle)
	res := m.RunDetailed(mech.UniformProfile(in.G.N(), 1e7))
	if len(res.Outcome.Receivers) == 0 {
		t.Fatal("no receivers")
	}
	edges := nwst.SpanningTree(in.G, res.Nodes, res.Outcome.Receivers[0])
	if len(edges) != len(res.Nodes)-1 {
		t.Fatalf("chosen nodes disconnected: %d nodes, %d tree edges", len(res.Nodes), len(edges))
	}
}

func TestAllPoorDropsEveryone(t *testing.T) {
	// Fig. 1 has strictly positive connection costs, so agents reporting
	// (essentially) zero cannot afford any spider. Without a source, a
	// single terminal is trivially connected at zero cost, so at most one
	// survivor remains — and it pays nothing.
	inst, _, _ := instances.Fig1NWST(0.01)
	m := New(inst, nwst.KleinRaviOracle)
	o := m.Run(mech.UniformProfile(inst.G.N(), 1e-12))
	if len(o.Receivers) > 1 || o.TotalShares() != 0 {
		t.Fatalf("penniless agents should be dropped to ≤ 1 free survivor: %v", o)
	}
	// With terminal 1 acting as a mandatory free source, even a lone
	// paying terminal must buy a connection it cannot afford: all drop.
	inst.Free = []bool{true, false, false, false}
	m = New(inst, nwst.KleinRaviOracle)
	o = m.Run(mech.UniformProfile(inst.G.N(), 1e-12))
	if len(o.Receivers) != 0 || o.TotalShares() != 0 {
		t.Fatalf("with a free source all poor agents must drop: %v", o)
	}
}

// TestMultiDropSPCounterexample pins down a reproduction finding (F3 in
// EXPERIMENTS.md): Theorem 2.3's strategyproofness proof has a gap. When
// a failing spider has several simultaneously-unaffordable terminals they
// are dropped together; the restart can then build a structurally cheaper
// solution. An agent can therefore over-report, outlive a competitor's
// drop, and pay a post-restart share *below its true utility* — a strict
// welfare gain. The phenomenon is oracle-independent (it reproduces with
// both spider oracles) and the paper's proof step "c_i(v) ≤ u_i by VP" is
// exactly where it leaks: VP only bounds shares by the reported utility.
func TestMultiDropSPCounterexample(t *testing.T) {
	g := graph.New(9)
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 2}, {4, 1}, {5, 3}, {6, 0}, {7, 1}, {8, 6}, {7, 6}, {3, 0}} {
		g.AddEdge(e[0], e[1], 0)
	}
	w := []float64{2.8672445723964546, 2.098193096479188, 0, 3.1720680406966477,
		1.7801484689145581, 0, 3.963874660690606, 0.9749479745486701, 0}
	in := nwst.Instance{G: g, Weights: w, Terminals: []int{2, 8, 5}}
	truth := make(mech.Profile, 9)
	truth[2], truth[8], truth[5] = 1.5999125377097512, 3.24097465560732, 3.5297249622863123

	for name, oracle := range map[string]nwst.Oracle{"kr": nwst.KleinRaviOracle, "branch": nwst.BranchSpiderOracle} {
		m := New(in, oracle)
		honest := m.Run(truth)
		// Truthful: the cheapest 3-terminal spider (ratio ≈ 3.334) is
		// unaffordable for agents 2 and 8 simultaneously; both drop and
		// only terminal 5 survives (alone, at zero cost).
		if honest.IsReceiver(2) || honest.IsReceiver(8) || !honest.IsReceiver(5) {
			t.Fatalf("%s: honest receivers = %v, expected only 5", name, honest.Receivers)
		}
		// Over-report by agent 2: only 8 drops; the restart connects
		// {2, 5} through node 3 at ratio 3.172/2 ≈ 1.586 < u_2.
		dev := truth.Clone()
		dev[2] = 3 * truth[2]
		o := m.Run(dev)
		if !o.IsReceiver(2) {
			t.Fatalf("%s: over-report no longer serves agent 2", name)
		}
		if math.Abs(o.Shares[2]-w[3]/2) > 1e-9 {
			t.Fatalf("%s: share = %g want %g", name, o.Shares[2], w[3]/2)
		}
		gain := o.Welfare(truth, 2) - honest.Welfare(truth, 2)
		if gain <= 1e-9 {
			t.Fatalf("%s: expected a strict SP violation, gain = %g", name, gain)
		}
	}
}

func TestFreeSourceNeverCharged(t *testing.T) {
	inst, truth, _ := instances.Fig1NWST(0.01)
	// Re-tag terminal 1 as a free source.
	inst.Free = []bool{true, false, false, false}
	m := New(inst, nwst.KleinRaviOracle)
	if got := m.Agents(); len(got) != 3 {
		t.Fatalf("agents = %v", got)
	}
	o := m.Run(truth)
	if _, charged := o.Shares[instances.Fig1T1]; charged {
		t.Error("free source must not appear in shares")
	}
	if err := mech.CheckNPT(o); err != nil {
		t.Error(err)
	}
}

// sameResult reports bitwise equality of receivers, shares, cost and
// chosen nodes.
func sameResult(a, b Result) bool {
	if !slices.Equal(a.Outcome.Receivers, b.Outcome.Receivers) ||
		!slices.Equal(a.Nodes, b.Nodes) ||
		math.Float64bits(a.Outcome.Cost) != math.Float64bits(b.Outcome.Cost) ||
		len(a.Outcome.Shares) != len(b.Outcome.Shares) {
		return false
	}
	for r, s := range a.Outcome.Shares {
		if t, ok := b.Outcome.Shares[r]; !ok || math.Float64bits(s) != math.Float64bits(t) {
			return false
		}
	}
	return true
}

// TestMemoReplaysMatchFreshRuns runs one mechanism through a sequence of
// profiles, each followed by the deviations mech.CheckStrategyproof
// probes, so its drop loop revisits terminal sets and replays the
// trajectories recorded for them. Every result must equal, bit for bit,
// a fresh mechanism's for the same profile: a fresh mechanism's one run
// replays nothing, since each pass's active set is strictly smaller than
// the last and no memo key repeats.
func TestMemoReplaysMatchFreshRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	oracles := []struct {
		name string
		o    nwst.Oracle
	}{{"kr", nwst.KleinRaviOracle}, {"branch", nwst.BranchSpiderOracle}}
	runs, dropped := 0, 0
	for trial := 0; trial < 6; trial++ {
		plain := randomNWST(rng, 9+rng.Intn(4), 4+rng.Intn(2))
		withSource := plain
		withSource.Free = make([]bool, len(plain.Terminals))
		withSource.Free[0] = true
		for _, in := range []nwst.Instance{plain, withSource} {
			for _, oracle := range oracles {
				m := New(in, oracle.o)
				for p := 0; p < 3; p++ {
					truth := mech.RandomProfile(rng, in.G.N(), 6)
					probes := []mech.Profile{truth}
					for _, i := range m.Agents() {
						for _, f := range mech.DefaultDeviationFactors {
							v := truth.Clone()
							if v[i] = truth[i] * f; v[i] != truth[i] {
								probes = append(probes, v)
							}
						}
					}
					for k, u := range probes {
						got, want := m.RunDetailed(u), New(in, oracle.o).RunDetailed(u)
						if !sameResult(got, want) {
							t.Fatalf("trial %d %s free=%v profile %d probe %d: replaying mechanism diverges from a fresh one\ngot:  %+v\nwant: %+v",
								trial, oracle.name, in.Free != nil, p, k, got, want)
						}
						runs++
						if len(got.Outcome.Receivers) < len(m.agents) {
							dropped++
						}
					}
				}
				// Every run starts from the full agent set, so once its
				// trajectory is recorded each later run replays its first
				// pass.
				free := make([]bool, len(m.freeTerms)+len(m.agents))
				for i := range m.freeTerms {
					free[i] = true
				}
				if len(m.memo.Lookup(nwst.TrajectoryKey(slices.Concat(m.freeTerms, m.agents), free))) == 0 {
					t.Fatalf("trial %d %s free=%v: the full agent set's trajectory was never recorded", trial, oracle.name, in.Free != nil)
				}
			}
		}
	}
	if dropped == 0 || dropped == runs {
		t.Fatalf("%d of %d runs dropped an agent: the sweep must cover drops and full service", dropped, runs)
	}
}
