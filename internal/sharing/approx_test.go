package sharing

import (
	"math"
	"testing"

	"wmcs/internal/mech"
)

// boundedBy reports whether every agent's sampled share is within eps of
// its exact value. The statistical test and its non-vacuity twin share
// this predicate: the honest certificate must satisfy it, a deliberately
// shrunk one must not.
func boundedBy(exact, approx map[int]float64, eps float64) bool {
	for i, want := range exact {
		if math.Abs(approx[i]-want) > eps {
			return false
		}
	}
	return true
}

// TestSampledShapleyWithinCertificate draws sampled estimates on games
// with known exact values and checks the observed error against the
// reported Hoeffding ε for every agent, across several seeds and sample
// budgets. With the bound's confidence at 1−δ = 99.9% per run, all runs
// passing at fixed seeds is the expected outcome; a bound violation
// means the certificate lies.
func TestSampledShapleyWithinCertificate(t *testing.T) {
	games := []struct {
		name   string
		agents []int
		cost   CostFunc
	}{
		{"airport", []int{0, 1, 2, 3, 4}, airportCost([]float64{1, 2, 3, 4, 5})},
		{"symmetric", []int{0, 1, 2, 3, 4, 5}, func(R []int) float64 { return 2 * float64(len(R)) }},
		{"coverage", []int{0, 1, 2, 3}, func(R []int) float64 {
			// Weighted coverage: union of per-agent element sets.
			sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
			w := []float64{3, 1, 4, 1.5}
			var have [4]bool
			for _, i := range R {
				for _, e := range sets[i] {
					have[e] = true
				}
			}
			var c float64
			for e, ok := range have {
				if ok {
					c += w[e]
				}
			}
			return c
		}},
	}
	for _, g := range games {
		exact := Shapley(g.cost).Shares(g.agents)
		for _, samples := range []int{200, 2000} {
			for seed := int64(1); seed <= 3; seed++ {
				s, err := NewSampledShapley(g.agents, g.cost, samples, 1e-3, seed)
				if err != nil {
					t.Fatal(err)
				}
				approx, cert := s.SharesCert(g.agents)
				if cert.Samples != samples || cert.Delta != 1e-3 {
					t.Fatalf("%s: cert echoes wrong parameters: %+v", g.name, cert)
				}
				if cert.Epsilon <= 0 || math.IsInf(cert.Epsilon, 0) || math.IsNaN(cert.Epsilon) {
					t.Fatalf("%s: degenerate epsilon %g", g.name, cert.Epsilon)
				}
				if !boundedBy(exact, approx, cert.Epsilon) {
					t.Errorf("%s seed=%d m=%d: sampled shares exceed certified ε=%g (exact %v approx %v)",
						g.name, seed, samples, cert.Epsilon, exact, approx)
				}
			}
		}
	}
}

// TestSampledShapleyCertificateNotVacuous pins that the bound check can
// fail at all: an intentionally undersampled run judged against a
// certificate whose ε was shrunk far below what its sample budget
// supports must violate the bound. If this "lying certificate" passes,
// the statistical test above is vacuous and proves nothing.
func TestSampledShapleyCertificateNotVacuous(t *testing.T) {
	agents := []int{0, 1, 2, 3, 4}
	cost := airportCost([]float64{1, 2, 3, 4, 5})
	exact := Shapley(cost).Shares(agents)
	failed := false
	for seed := int64(1); seed <= 10; seed++ {
		s, err := NewSampledShapley(agents, cost, 3, 1e-3, seed)
		if err != nil {
			t.Fatal(err)
		}
		approx, cert := s.SharesCert(agents)
		if !boundedBy(exact, approx, cert.Epsilon/200) {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("a 200x-shrunk certificate passed the bound check on every seed; the statistical test is vacuous")
	}
}

// TestSampledShapleyDeterministic pins byte-reproducibility: equal
// (seed, samples, R) must reproduce bit-equal shares regardless of call
// order or instance, which is what the serving cache key relies on.
func TestSampledShapleyDeterministic(t *testing.T) {
	agents := []int{2, 5, 7, 11}
	cost := airportCost([]float64{0, 0, 1, 0, 0, 2, 0, 5, 0, 0, 0, 4})
	a, _ := NewSampledShapley(agents, cost, 50, 0.05, 42)
	b, _ := NewSampledShapley(agents, cost, 50, 0.05, 42)
	// Run b on a different subset first: an earlier call must not
	// perturb the permutation stream.
	b.Shares([]int{2, 5})
	s1, c1 := a.SharesCert(agents)
	s2, c2 := b.SharesCert(agents)
	if c1 != c2 {
		t.Fatalf("certificates differ: %+v vs %+v", c1, c2)
	}
	for i := range s1 {
		if math.Float64bits(s1[i]) != math.Float64bits(s2[i]) {
			t.Fatalf("share[%d] not bit-equal: %x vs %x", i, s1[i], s2[i])
		}
	}
}

func TestSampledShapleyRejectsBadParameters(t *testing.T) {
	cost := func(R []int) float64 { return float64(len(R)) }
	if _, err := NewSampledShapley([]int{0}, cost, 0, 0.1, 1); err == nil {
		t.Error("samples=0 accepted")
	}
	if _, err := NewSampledShapley([]int{0}, cost, 10, 0, 1); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NewSampledShapley([]int{0}, cost, 10, 1, 1); err == nil {
		t.Error("delta=1 accepted")
	}
	if _, err := NewSampledShapley([]int{0}, cost, 10, math.NaN(), 1); err == nil {
		t.Error("delta=NaN accepted")
	}
}

// TestShapleyAgentLimit: the sampled tier has no agent cap and keeps
// working at n = 65, past the exact method's 20.
func TestShapleyAgentLimit(t *testing.T) {
	agents := make([]int, 65)
	for i := range agents {
		agents[i] = i
	}
	cost := func(R []int) float64 { return float64(len(R)) }

	// The sampled tier is the escape hatch: no agent cap, and on the
	// symmetric game its estimate is exactly 1 per agent (every marginal
	// is 1), so even a tiny budget is spot-on.
	s, err := NewSampledShapley(agents, cost, 5, 0.1, 7)
	if err != nil {
		t.Fatalf("sampled tier rejected 65 agents: %v", err)
	}
	shares, cert := s.SharesCert(agents)
	if len(shares) != 65 {
		t.Fatalf("got %d shares, want 65", len(shares))
	}
	for i, v := range shares {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("share[%d] = %g want 1", i, v)
		}
	}
	if cert.Epsilon <= 0 {
		t.Errorf("cert epsilon %g", cert.Epsilon)
	}
}

// TestSampledShapleyAllocsIndependentOfSamples pins that pricing a
// permutation prefix allocates nothing: a fresh estimator's SharesCert
// allocates the same at 64 and at 512 samples over an allocation-free
// cost oracle. A per-call allocation anywhere in the permutation walk
// (a memo insert, a probe key) would add allocations in proportion to
// the samples.
func TestSampledShapleyAllocsIndependentOfSamples(t *testing.T) {
	agents := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	cost := airportCost([]float64{0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8})
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(10, func() {
			s, err := NewSampledShapley(agents, cost, samples, 0.05, 9)
			if err != nil {
				t.Fatal(err)
			}
			s.SharesCert(agents)
		})
	}
	if few, many := allocs(64), allocs(512); few != many {
		t.Fatalf("a fresh estimator's SharesCert allocates %v at 64 samples and %v at 512", few, many)
	}
}

// TestRunApproxCertMatchesSharesCert pins that the sampled mechanism's
// certificate, computed from the survivors' singleton costs, equals
// SharesCert(res.Receivers)'s bit for bit: over random profiles, and
// over the all-zero profile whose survivor set is empty.
func TestRunApproxCertMatchesSharesCert(t *testing.T) {
	agents := agentsUpto(9)
	cost := randSubmodularCost(9, 20, 17)
	m := &MechanismFromMethod{MechName: "sampled", AgentSet: agents, Xi: Shapley(cost), Cost: cost}
	spec := mech.ApproxSpec{Samples: 48, Delta: 0.05, Seed: 3}
	us := append(randomProfiles(agents, 16, 8), make(mech.Profile, len(agents)))
	sawEmpty, sawPartial := false, false
	for q, u := range us {
		out, cert, err := m.RunApprox(u, spec)
		if err != nil {
			t.Fatal(err)
		}
		sawEmpty = sawEmpty || len(out.Receivers) == 0
		sawPartial = sawPartial || (len(out.Receivers) > 0 && len(out.Receivers) < len(agents))
		s, err := NewSampledShapley(agents, cost, spec.Samples, spec.Delta, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		_, want := s.SharesCert(out.Receivers)
		if cert.Samples != want.Samples ||
			math.Float64bits(cert.Epsilon) != math.Float64bits(want.Epsilon) ||
			math.Float64bits(cert.Delta) != math.Float64bits(want.Delta) ||
			math.Float64bits(cert.DeltaMax) != math.Float64bits(want.DeltaMax) {
			t.Fatalf("profile %d (survivors %v): RunApprox cert %+v, SharesCert %+v", q, out.Receivers, cert, want)
		}
	}
	if !sawEmpty || !sawPartial {
		t.Fatalf("profiles left no empty (%v) or no partial (%v) survivor set; the check misses a case", sawEmpty, sawPartial)
	}
}
