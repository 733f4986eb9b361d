package wmcs

// Benchmark harness: one benchmark per experiment table of the simulated
// evaluation (DESIGN.md §4) — BenchmarkE01…BenchmarkE13 and the ablations
// BenchmarkA01/A04 regenerate the same rows cmd/benchtab prints — plus
// micro benchmarks of the algorithmic substrates the mechanisms stand on,
// and the serial-vs-parallel RunAll pair exposing the engine speedup.

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"wmcs/internal/euclid1"
	"wmcs/internal/experiments"
	"wmcs/internal/instances"
	"wmcs/internal/jv"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/memtred"
	"wmcs/internal/mst"
	"wmcs/internal/nwst"
	"wmcs/internal/nwstmech"
	"wmcs/internal/query"
	"wmcs/internal/sharing"
	"wmcs/internal/steiner"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
	"wmcs/internal/wmech"
)

func benchExperiment(b *testing.B, id string) {
	e := experiments.Lookup(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiments.Config{Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := e.Run(cfg)
		tab.Render(io.Discard)
	}
}

func BenchmarkE01UniversalSubmodular(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE02UniversalShapley(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE03UniversalMC(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE04Fig1Collusion(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE05NWSTMechanism(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE06WirelessBB(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE07Alpha1(b *testing.B)              { benchExperiment(b, "E7") }
func BenchmarkE08Line(b *testing.B)                { benchExperiment(b, "E8") }
func BenchmarkE09PentagonCore(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10MSTRatio(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11MoatMechanism(b *testing.B)       { benchExperiment(b, "E11") }
func BenchmarkE12Multicast(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13ScenarioSweep(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14ShareStability(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15UpdateLatency(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE15bFullRebuild(b *testing.B)        { benchExperiment(b, "E15b") }
func BenchmarkA01TreeChoice(b *testing.B)          { benchExperiment(b, "A1") }
func BenchmarkA04EfficiencyLoss(b *testing.B)      { benchExperiment(b, "A4") }

// BenchmarkRunAllSerial/Parallel expose the engine speedup: identical
// bytes, different wall clock (compare ns/op at -cpu settings ≥ 4).
func BenchmarkRunAllSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAll(io.Discard, experiments.Config{Quick: true, Workers: 1})
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAll(io.Discard, experiments.Config{Quick: true})
	}
}

// --- the amortized query path vs the one-shot path ---

// repeatedQuerySetup builds one network and a fixed set of profiles, the
// shape of the E6/E13 hot path: many receiver-set queries against one
// fixed network.
func repeatedQuerySetup() (*wireless.Network, []mech.Profile) {
	rng := rand.New(rand.NewSource(21))
	nw := instances.RandomEuclidean(rng, 10, 2, 2, 10)
	profiles := make([]mech.Profile, 8)
	for i := range profiles {
		profiles[i] = mech.RandomProfile(rng, nw.N(), 50)
	}
	return nw, profiles
}

// BenchmarkOneShotQueries rebuilds the whole pipeline (reduction, states)
// for every query — the pre-Evaluator pattern.
func BenchmarkOneShotQueries(b *testing.B) {
	nw, profiles := repeatedQuerySetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range profiles {
			m := wmech.New(nw, nwst.KleinRaviOracle)
			m.Run(u)
		}
	}
}

// BenchmarkEvaluatorRepeatedQueries serves the same queries from one
// Evaluator, amortizing the reduction and the contraction-state pool.
// Compare allocs/op and ns/op with BenchmarkOneShotQueries.
func BenchmarkEvaluatorRepeatedQueries(b *testing.B) {
	nw, profiles := repeatedQuerySetup()
	ev := query.NewEvaluator(nw, query.WithOracle(nwst.KleinRaviOracle))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range profiles {
			if _, err := ev.Evaluate("wireless-bb", nil, u); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluatorBatch is the same workload through EvaluateBatch on a
// GOMAXPROCS-wide pool (byte-identical outcomes to the serial loop).
func BenchmarkEvaluatorBatch(b *testing.B) {
	nw, profiles := repeatedQuerySetup()
	ev := query.NewEvaluator(nw, query.WithOracle(nwst.KleinRaviOracle))
	reqs := make([]query.Request, len(profiles))
	for i, u := range profiles {
		reqs[i] = query.Request{Mech: "wireless-bb", Profile: u}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateBatch(reqs, 0)
	}
}

// --- the delta-aware update path vs the full-rebuild baseline ---

// patchBench drives single-row SetCost updates through a warm versioned
// evaluator at serving scale (n = 96, reduction + universal-shapley
// built). The two entry points below differ only in the evaluator
// options; their ns/op ratio is the tentpole's ≥5× claim, gated in CI
// through the E15/E15b wall clocks.
func patchBench(b *testing.B, opts ...query.Option) {
	const n = 96
	sc, err := instances.ScenarioByName("symmetric")
	if err != nil {
		b.Fatal(err)
	}
	nw := sc.Gen(rand.New(rand.NewSource(27)), n, 2)
	ve := query.NewVersioned(nw, opts...)
	ve.Evaluator().Reduction()
	if _, err := ve.Evaluator().Mechanism("universal-shapley"); err != nil {
		b.Fatal(err)
	}
	// Alternate between two fixed values so no iteration is a same-value
	// no-op and the costs stay bounded for any b.N.
	c0 := nw.C(3, 7)
	targets := [2]float64{c0 * 1.25, c0 * 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := targets[i%2]
		if _, err := ve.Update(func(nw *wireless.Network) error {
			_, err := nw.SetCost(3, 7, target)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatchSingleRow(b *testing.B)   { patchBench(b) }
func BenchmarkPatchFullRebuild(b *testing.B) { patchBench(b, query.WithoutDeltaRebuild()) }

// --- micro benchmarks of the substrates ---

func BenchmarkExactMEMT12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nw := instances.RandomEuclidean(rng, 12, 2, 2, 10)
	R := nw.AllReceivers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wireless.ExactMEMT(nw, R)
	}
}

func BenchmarkMSTBroadcast64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	nw := instances.RandomEuclidean(rng, 64, 2, 2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wireless.MSTBroadcast(nw)
	}
}

func BenchmarkBIPBroadcast64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	nw := instances.RandomEuclidean(rng, 64, 2, 2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wireless.BIPBroadcast(nw)
	}
}

func BenchmarkLineOptimal32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	nw := instances.RandomLine(rng, 32, 2, 10)
	R := nw.AllReceivers()[:16]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wireless.LineOptimal(nw, R)
	}
}

func BenchmarkTreeShapley64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	nw := instances.RandomEuclidean(rng, 64, 2, 2, 10)
	ut := universal.SPT(nw)
	R := nw.AllReceivers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ut.Shapley(R)
	}
}

func BenchmarkExactShapley12(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	nw := instances.RandomEuclidean(rng, 13, 2, 2, 10)
	ut := universal.SPT(nw)
	agents := nw.AllReceivers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := sharing.Shapley(ut.CostFunc())
		sh.Shares(agents)
	}
}

func BenchmarkLineGameBuild24(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	nw := instances.RandomLine(rng, 24, 2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		euclid1.NewLineGame(nw)
	}
}

func BenchmarkLineShapley16(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	nw := instances.RandomLine(rng, 16, 2, 10)
	g := euclid1.NewLineGame(nw)
	R := nw.AllReceivers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Shapley(R)
	}
}

func BenchmarkMoats32(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	nw := instances.RandomEuclidean(rng, 32, 2, 2, 10)
	R := nw.AllReceivers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jv.Moats(nw, R, nil)
	}
}

// reductionFixture is the count ledger's kernel fixture for the
// MEMT→NWST reduction at n stations: the symmetric network of seed 1,
// and a copy after one SetCost that dirties rows 1 and 2.
func reductionFixture(b *testing.B, n int) (nw, work *wireless.Network, dirty []bool) {
	nw, err := instances.Spec{Scenario: "symmetric", N: n, Alpha: 2, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	work = nw.Snapshot()
	if _, err := work.SetCost(1, 2, work.C(1, 2)*1.1); err != nil {
		b.Fatal(err)
	}
	return nw, work, work.TakeDelta().DirtyRows
}

// BenchmarkReductionNew times memtred.New, the reduction graph H with its
// chain description, on the ledger's fixtures.
func BenchmarkReductionNew(b *testing.B) {
	for _, n := range []int{12, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, _, _ := reductionFixture(b, n)
			b.ReportAllocs()
			for b.Loop() {
				memtred.New(nw)
			}
		})
	}
}

// BenchmarkReductionRebuild times memtred.Rebuild after the fixture's one
// SetCost, with New's reduction of the network before it as the donor.
func BenchmarkReductionRebuild(b *testing.B) {
	for _, n := range []int{12, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, work, dirty := reductionFixture(b, n)
			prev := memtred.New(nw)
			if memtred.Rebuild(prev, work, dirty) == nil {
				b.Fatal("memtred.Rebuild fell back to New")
			}
			b.ReportAllocs()
			for b.Loop() {
				memtred.Rebuild(prev, work, dirty)
			}
		})
	}
}

func BenchmarkSpiderOracleKR(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	nw := instances.RandomEuclidean(rng, 8, 2, 2, 10)
	rd := memtred.New(nw)
	in := rd.Instance(nw.AllReceivers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := nwst.NewState(in)
		nwst.KleinRaviOracle(st, 3)
	}
}

func BenchmarkSpiderOracleBranch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	nw := instances.RandomEuclidean(rng, 8, 2, 2, 10)
	rd := memtred.New(nw)
	in := rd.Instance(nw.AllReceivers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := nwst.NewState(in)
		nwst.BranchSpiderOracle(st, 3)
	}
}

// BenchmarkSpiderOracleBranchContracted times the branch call serving
// takes after a contraction: a pooled state on the uni12 network's
// reduction, one Shrink past the pool's table of uncontracted rows, so
// the call sweeps every live row itself. A state reuses its own rows
// when it sees the contraction sequence it last swept, even across
// Reset, so the iterations alternate two terminal sets whose first
// spiders differ, and every timed call sweeps.
func BenchmarkSpiderOracleBranchContracted(b *testing.B) {
	nw, err := instances.Spec{Scenario: "uniform", N: 12, Alpha: 2, Seed: 11}.Build()
	if err != nil {
		b.Fatal(err)
	}
	rd := memtred.New(nw)
	all := rd.Instance(nw.AllReceivers())
	pool := nwst.NewStatePool(all)
	first := func(in nwst.Instance) nwst.Spider {
		sp, ok := nwst.BranchSpiderOracle(nwst.NewState(in), 3)
		if !ok {
			b.Fatal("no first spider")
		}
		return sp
	}
	sp0 := first(all)
	less := rd.Instance(slices.DeleteFunc(nw.AllReceivers(), func(r int) bool { return rd.In[r] == sp0.Terms[len(sp0.Terms)-1] }))
	sets := []nwst.Instance{all, less}
	spiders := []nwst.Spider{sp0, first(less)}
	if slices.Equal(spiders[0].Nodes, spiders[1].Nodes) {
		b.Fatal("both terminal sets contract the same first spider")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := sets[i%2]
		st := pool.Get(in.Terminals, in.Free)
		st.Shrink(spiders[i%2])
		b.StartTimer()
		nwst.BranchSpiderOracle(st, 3)
		pool.Put(st)
	}
}

func BenchmarkNWSTMechanism(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	nw := instances.RandomEuclidean(rng, 8, 2, 2, 10)
	rd := memtred.New(nw)
	in := rd.Instance(nw.AllReceivers())
	u := make(mech.Profile, rd.G.N())
	for _, r := range nw.AllReceivers() {
		u[rd.In[r]] = 1e6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nwstmech.New(in, nwst.KleinRaviOracle)
		m.Run(u)
	}
}

func BenchmarkWirelessBBMechanism(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	nw := instances.RandomEuclidean(rng, 10, 2, 2, 10)
	u := mech.UniformProfile(nw.N(), 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := wmech.New(nw, nwst.KleinRaviOracle)
		m.Run(u)
	}
}

// BenchmarkWirelessBBFreshQueries is wireless-bb's cache misses at the
// query layer, on the serving benchmark's wireless-bb networks:
// cold-compute's uni12 and sym12 and churn's uni8 and sym8. Each
// iteration builds a fresh Evaluator on the network and answers 16
// seeded uniform-workload queries through the default branch oracle.
// Unlike the one-attempt benchmarks above, the profiles make receivers
// drop, so attempts repeat and the trajectory memo misses as on served
// cache misses.
func BenchmarkWirelessBBFreshQueries(b *testing.B) {
	for _, sp := range []instances.Spec{
		{Name: "uni12", Scenario: "uniform", N: 12, Alpha: 2, Seed: 11},
		{Name: "sym12", Scenario: "symmetric", N: 12, Alpha: 2, Seed: 12},
		{Name: "uni8", Scenario: "uniform", N: 8, Alpha: 2, Seed: 21},
		{Name: "sym8", Scenario: "symmetric", N: 8, Alpha: 2, Seed: 24},
	} {
		b.Run(sp.Name, func(b *testing.B) {
			nw, err := sp.Build()
			if err != nil {
				b.Fatal(err)
			}
			uniform, err := instances.WorkloadByName("uniform")
			if err != nil {
				b.Fatal(err)
			}
			smp := uniform.New(rand.New(rand.NewSource(7)), nw, instances.WorkloadOptions{})
			qs := make([]instances.Query, 16)
			for i := range qs {
				qs[i] = smp.Next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := query.NewEvaluator(nw)
				for _, q := range qs {
					if _, err := ev.Evaluate(mechreg.WirelessBB, q.R, q.U); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSampledShapley is the sampled Shapley tier on cold-compute's
// two sampled classes of the serving benchmark: universal-shapley on a
// uniform n = 32 network and line-shapley on a line n = 32 network, each
// answering one seeded uniform-workload query through a warm Evaluator
// at cold-compute's spec (1024 samples, δ = 0.05, seed 1).
func BenchmarkSampledShapley(b *testing.B) {
	spec := mech.ApproxSpec{Samples: 1024, Delta: 0.05, Seed: 1}
	for _, c := range []struct {
		mech string
		sp   instances.Spec
	}{
		{mechreg.UniversalShapley, instances.Spec{Name: "uni32", Scenario: "uniform", N: 32, Alpha: 2, Seed: 13}},
		{mechreg.LineShapley, instances.Spec{Name: "line32", Scenario: "line", N: 32, Alpha: 2, Seed: 14}},
	} {
		b.Run(c.mech, func(b *testing.B) {
			nw, err := c.sp.Build()
			if err != nil {
				b.Fatal(err)
			}
			uniform, err := instances.WorkloadByName("uniform")
			if err != nil {
				b.Fatal(err)
			}
			q := uniform.New(rand.New(rand.NewSource(7)), nw, instances.WorkloadOptions{}).Next()
			ev := query.NewEvaluator(nw)
			if _, err := ev.Mechanism(c.mech); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ev.EvaluateApprox(c.mech, q.R, q.U, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDreyfusWagner(b *testing.B) {
	p := instances.Pentagon(6, 2)
	terms := append([]int{p.Source}, p.Externals...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steiner.DreyfusWagner(p.Chain, terms)
	}
}

func BenchmarkKMB64(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	nw := instances.RandomEuclidean(rng, 64, 2, 2, 10)
	g := nw.CompleteGraph()
	terms := []int{0, 5, 17, 33, 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steiner.KMB(g, terms)
	}
}

func BenchmarkMSTPrimMatrix128(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	nw := instances.RandomEuclidean(rng, 128, 2, 2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mst.PrimMatrix(nw.CostMatrix(), 0)
	}
}
