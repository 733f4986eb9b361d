package sharing

import (
	"math/rand"
	"reflect"
	"testing"

	"wmcs/internal/engine"
	"wmcs/internal/mech"
)

// randSubmodularCost builds a deterministic non-decreasing submodular
// oracle: a coverage function over weighted ground elements.
func randSubmodularCost(n, ground int, seed int64) CostFunc {
	rng := rand.New(rand.NewSource(seed))
	covers := make([][]int, n)
	for i := range covers {
		m := 1 + rng.Intn(4)
		for j := 0; j < m; j++ {
			covers[i] = append(covers[i], rng.Intn(ground))
		}
	}
	wgt := make([]float64, ground)
	for i := range wgt {
		wgt[i] = 0.5 + rng.Float64()
	}
	return func(R []int) float64 {
		seen := make(map[int]bool)
		tot := 0.0
		for _, a := range R {
			for _, g := range covers[a] {
				if !seen[g] {
					seen[g] = true
					tot += wgt[g]
				}
			}
		}
		return tot
	}
}

func agentsUpto(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

// approxBatch evaluates one sampled-tier query per profile through a
// shared mechanism on an engine pool of the given width — the only
// parallelism the sampled tier has: across queries, never inside one.
func approxBatch(t *testing.T, m *MechanismFromMethod, us []mech.Profile, spec mech.ApproxSpec, width int) ([]mech.Outcome, []mech.ApproxCert) {
	t.Helper()
	type res struct {
		out  mech.Outcome
		cert mech.ApproxCert
		err  error
	}
	rs := engine.Map(engine.New(width), len(us), func(i int) res {
		out, cert, err := m.RunApprox(us[i], spec)
		return res{out, cert, err}
	})
	outs := make([]mech.Outcome, len(rs))
	certs := make([]mech.ApproxCert, len(rs))
	for i, r := range rs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		outs[i], certs[i] = r.out, r.cert
	}
	return outs, certs
}

// randomProfiles draws n utility profiles over the agents.
func randomProfiles(agents []int, n int, seed int64) []mech.Profile {
	rng := rand.New(rand.NewSource(seed))
	us := make([]mech.Profile, n)
	for q := range us {
		us[q] = make(mech.Profile, len(agents))
		for _, a := range agents {
			us[q][a] = rng.Float64() * 3
		}
	}
	return us
}

// TestSampledParallelWidthInvariant: sampled-tier queries evaluated
// concurrently on one shared mechanism reproduce the width-1 bytes,
// certificates included.
func TestSampledParallelWidthInvariant(t *testing.T) {
	agents := agentsUpto(9)
	cost := randSubmodularCost(9, 20, 42)
	m := &MechanismFromMethod{MechName: "sampled", AgentSet: agents, Xi: Shapley(cost), Cost: cost}
	us := randomProfiles(agents, 12, 6)
	spec := mech.ApproxSpec{Samples: 37, Delta: 0.05, Seed: 11}
	wantOuts, wantCerts := approxBatch(t, m, us, spec, 1)
	for _, width := range []int{2, 4, 8, 16} {
		outs, certs := approxBatch(t, m, us, spec, width)
		for q := range us {
			if certs[q] != wantCerts[q] {
				t.Fatalf("width %d query %d: cert %+v != %+v", width, q, certs[q], wantCerts[q])
			}
			for a, v := range wantOuts[q].Shares {
				if outs[q].Shares[a] != v {
					t.Fatalf("width %d query %d agent %d: %v != %v (bitwise)", width, q, a, outs[q].Shares[a], v)
				}
			}
		}
	}
}

// TestSampledParallelEstimateQuality: every concurrently evaluated
// sampled-tier outcome honours its certificate — each reported share is
// within ε of the exact Shapley share of the surviving receiver set.
func TestSampledParallelEstimateQuality(t *testing.T) {
	agents := agentsUpto(6)
	cost := randSubmodularCost(6, 10, 8)
	m := &MechanismFromMethod{MechName: "sampled", AgentSet: agents, Xi: Shapley(cost), Cost: cost}
	us := randomProfiles(agents, 8, 13)
	outs, certs := approxBatch(t, m, us, mech.ApproxSpec{Samples: 4000, Delta: 1e-3, Seed: 13}, 4)
	for q, out := range outs {
		if len(out.Receivers) == 0 {
			continue
		}
		exact := Shapley(cost).Shares(out.Receivers)
		if !boundedBy(exact, out.Shares, certs[q].Epsilon) {
			t.Fatalf("query %d: shares %v exceed ε=%g of exact %v", q, out.Shares, certs[q].Epsilon, exact)
		}
	}
}

// TestMechanismFromMethodParallelTier: the sampled tier through the
// M(ξ) wrapper reproduces its bytes run after run.
func TestMechanismFromMethodParallelTier(t *testing.T) {
	agents := agentsUpto(8)
	cost := randSubmodularCost(8, 14, 31)
	u := randomProfiles(agents, 1, 4)[0]
	m := &MechanismFromMethod{MechName: "exact", AgentSet: agents, Xi: Shapley(cost), Cost: cost}
	spec := mech.ApproxSpec{Samples: 33, Delta: 0.1, Seed: 5}
	aBase, cBase, err := m.RunApprox(u, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, cert, err := m.RunApprox(u, spec)
		if err != nil {
			t.Fatal(err)
		}
		if cert != cBase || !reflect.DeepEqual(got, aBase) {
			t.Fatalf("run %d: approx outcome %+v %+v drifted from %+v %+v", i, got, cert, aBase, cBase)
		}
	}
}
