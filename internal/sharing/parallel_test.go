package sharing

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
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

// TestSharesParallelWidthInvariant is the core determinism contract:
// the blocked reduction produces bit-identical shares at width 1 and at
// every wider pool.
func TestSharesParallelWidthInvariant(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 7, 10, 13} {
		agents := agentsUpto(k)
		cost := randSubmodularCost(k, 3*k, int64(1000+k))
		want := NewShapley(agents, cost).SharesParallel(agents, engine.Serial())
		for _, width := range []int{2, 3, 4, 8, 16} {
			got := NewShapley(agents, cost).SharesParallel(agents, engine.New(width))
			if len(got) != len(want) {
				t.Fatalf("k=%d width=%d: %d shares, want %d", k, width, len(got), len(want))
			}
			for a, v := range want {
				if got[a] != v {
					t.Fatalf("k=%d width=%d agent %d: %v != %v (bitwise)", k, width, a, got[a], v)
				}
			}
		}
	}
}

// naiveShapley evaluates the subset formula directly — every C(Q) and
// C(Q∪{i}) queried from the oracle, no table, no blocks, no memo.
func naiveShapley(R []int, cost CostFunc) map[int]float64 {
	k := len(R)
	fact := make([]float64, k+1)
	fact[0] = 1
	for i := 1; i <= k; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	shares := make(map[int]float64, k)
	for lm := 0; lm < 1<<k; lm++ {
		var Q []int
		for i := 0; i < k; i++ {
			if lm&(1<<i) != 0 {
				Q = append(Q, R[i])
			}
		}
		if len(Q) == k {
			continue
		}
		w := fact[len(Q)] * fact[k-len(Q)-1] / fact[k]
		cq := cost(Q)
		for i := 0; i < k; i++ {
			if lm&(1<<i) == 0 {
				shares[R[i]] += w * (cost(append(append([]int(nil), Q...), R[i])) - cq)
			}
		}
	}
	return shares
}

// TestSharesParallelMatchesSerial: the width-N entry reproduces Shares —
// the width-1 entry of the same blocked reduction — bit for bit, and
// both agree with the directly evaluated subset formula to float-sum
// reassociation tolerance.
func TestSharesParallelMatchesSerial(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6, 9, 12} {
		agents := agentsUpto(k)
		cost := randSubmodularCost(k, 2*k+1, int64(77+k))
		serial := NewShapley(agents, cost).Shares(agents)
		par := NewShapley(agents, cost).SharesParallel(agents, engine.New(4))
		naive := naiveShapley(agents, cost)
		for a, v := range serial {
			if par[a] != v {
				t.Fatalf("k=%d agent %d: width 4 %v != width 1 %v (bitwise)", k, a, par[a], v)
			}
			if d := math.Abs(naive[a] - v); d > 1e-9 {
				t.Fatalf("k=%d agent %d: %v vs subset formula %v (diff %g)", k, a, v, naive[a], d)
			}
		}
	}
}

// TestSharesParallelSubsetAndMemo exercises R ⊂ universe and verifies
// the cost table is folded back into the cross-call memo: a second call
// on a shrunken set must issue no fresh oracle calls, and a warm-memo
// answer must equal a cold one bit for bit.
func TestSharesParallelSubsetAndMemo(t *testing.T) {
	agents := agentsUpto(8)
	// The pool calls the oracle from several goroutines at once, so the
	// counter must be atomic.
	var calls atomic.Int64
	base := randSubmodularCost(8, 12, 5)
	counting := func(R []int) float64 { calls.Add(1); return base(R) }
	s := NewShapley(agents, counting)
	pool := engine.New(4)
	R := []int{1, 2, 4, 5, 7}
	first := s.SharesParallel(R, pool)
	callsAfterFirst := calls.Load()
	if callsAfterFirst == 0 {
		t.Fatal("no oracle calls on a cold memo")
	}
	second := s.SharesParallel(R[:4], pool)
	if n := calls.Load(); n != callsAfterFirst {
		t.Fatalf("shrunken re-query issued %d fresh oracle calls, want 0", n-callsAfterFirst)
	}
	if len(first) != 5 || len(second) != 4 {
		t.Fatalf("share counts %d/%d, want 5/4", len(first), len(second))
	}
	want := NewShapley(agents, base).Shares(R[:4])
	for a, v := range want {
		if second[a] != v {
			t.Fatalf("agent %d: warm %v != cold %v", a, second[a], v)
		}
	}
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
	m := &MechanismFromMethod{MechName: "sampled", AgentSet: agents, Xi: NewShapley(agents, cost), Cost: cost}
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
	m := &MechanismFromMethod{MechName: "sampled", AgentSet: agents, Xi: NewShapley(agents, cost), Cost: cost}
	us := randomProfiles(agents, 8, 13)
	outs, certs := approxBatch(t, m, us, mech.ApproxSpec{Samples: 4000, Delta: 1e-3, Seed: 13}, 4)
	for q, out := range outs {
		if len(out.Receivers) == 0 {
			continue
		}
		exact := NewShapley(agents, cost).Shares(out.Receivers)
		if !boundedBy(exact, out.Shares, certs[q].Epsilon) {
			t.Fatalf("query %d: shares %v exceed ε=%g of exact %v", q, out.Shares, certs[q].Epsilon, exact)
		}
	}
}

// TestSampledParallelCounters: Queries/Hits are deterministic — equal on
// identical instances evaluated concurrently — and the fresh costs land
// in the memo (a replay is all hits).
func TestSampledParallelCounters(t *testing.T) {
	agents := agentsUpto(6)
	cost := randSubmodularCost(6, 10, 21)
	type counts struct{ queries, hits, replayQueries int }
	run := func(int) counts {
		s, _ := NewSampledShapley(agents, cost, 16, 0.1, 2)
		s.SharesCert(agents)
		q, h := s.Queries, s.Hits
		s.SharesCert(agents)
		return counts{q, h, s.Queries - q}
	}
	want := run(0)
	if want.queries == 0 {
		t.Fatal("no oracle queries recorded")
	}
	if want.replayQueries != 0 {
		t.Fatalf("replay issued %d fresh queries, want 0", want.replayQueries)
	}
	for i, got := range engine.Map(engine.New(4), 8, run) {
		if got != want {
			t.Fatalf("instance %d: counters %+v differ from %+v", i, got, want)
		}
	}
}

// TestMechanismFromMethodParallelTier: M(ξ) over the exact Shapley
// method yields the same outcome whether ξ evaluates at width 1 (Shares)
// or on a wider pool (SharesParallel), and the sampled tier through the
// same wrapper reproduces its bytes run after run.
func TestMechanismFromMethodParallelTier(t *testing.T) {
	agents := agentsUpto(8)
	cost := randSubmodularCost(8, 14, 31)
	u := randomProfiles(agents, 1, 4)[0]
	run := func(xi Method) mech.Outcome {
		m := &MechanismFromMethod{MechName: "exact", AgentSet: agents, Xi: xi, Cost: cost}
		return m.Run(u)
	}
	base := run(NewShapley(agents, cost))
	for _, width := range []int{2, 4, 8} {
		sh, pool := NewShapley(agents, cost), engine.New(width)
		got := run(MethodFunc(func(R []int) map[int]float64 { return sh.SharesParallel(R, pool) }))
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("width %d outcome drifted: %+v vs %+v", width, got, base)
		}
	}
	m := &MechanismFromMethod{MechName: "exact", AgentSet: agents, Xi: NewShapley(agents, cost), Cost: cost}
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
