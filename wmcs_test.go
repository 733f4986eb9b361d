package wmcs

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
)

func smallCloud(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

func TestNewEuclideanNetwork(t *testing.T) {
	nw := NewEuclideanNetwork([][]float64{{0, 0}, {3, 4}}, 2, 0)
	if nw.N() != 2 || math.Abs(nw.C(0, 1)-25) > 1e-9 {
		t.Fatalf("C(0,1) = %g want 25", nw.C(0, 1))
	}
}

func TestNewSymmetricNetwork(t *testing.T) {
	nw, err := NewSymmetricNetwork([][]float64{{0, 2}, {2, 0}}, 0)
	if err != nil || nw.C(0, 1) != 2 {
		t.Fatalf("err=%v", err)
	}
	if _, err := NewSymmetricNetwork([][]float64{{0, 1}, {2, 0}}, 0); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := NewSymmetricNetwork([][]float64{{0, 1}}, 0); err == nil {
		t.Error("ragged matrix accepted")
	}
	// Each must return an error, not panic and not build a network that
	// a mechanism or SetCost would reject later.
	for _, in := range []struct {
		name   string
		costs  [][]float64
		source int
	}{
		{"empty matrix", nil, 0},
		{"source past n", [][]float64{{0, 2}, {2, 0}}, 5},
		{"negative source", [][]float64{{0, 2}, {2, 0}}, -1},
		{"negative cost", [][]float64{{0, -1}, {-1, 0}}, 0},
		{"infinite cost", [][]float64{{0, math.Inf(1)}, {math.Inf(1), 0}}, 0},
		{"DisabledCost", [][]float64{{0, 1e9}, {1e9, 0}}, 0},
		{"NaN cost", [][]float64{{0, math.NaN()}, {math.NaN(), 0}}, 0},
		{"NaN in one corner", [][]float64{{0, 1, 2}, {1, 0, 3}, {2, math.NaN(), 0}}, 0},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", in.name, r)
				}
			}()
			if _, err := NewSymmetricNetwork(in.costs, in.source); err == nil {
				t.Errorf("%s accepted", in.name)
			}
		}()
	}
	if _, err := NewSymmetricNetwork([][]float64{{0, math.NaN()}, {math.NaN(), 0}}, 0); err == nil || !strings.Contains(err.Error(), "(0,1) = NaN") {
		t.Errorf("a NaN cost is reported as %v; want its position and value", err)
	}
}

func TestByNameAllMechanismsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range MechanismNames() {
		var nw *Network
		switch name {
		case "alpha1-shapley", "alpha1-mc":
			nw = NewEuclideanNetwork(smallCloud(rng, 6, 2), 1, 0)
		case "line-shapley", "line-mc":
			nw = NewEuclideanNetwork(smallCloud(rng, 6, 1), 2, 0)
		default:
			nw = NewEuclideanNetwork(smallCloud(rng, 6, 2), 2, 0)
		}
		m, err := ByName(name, nw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u := make(Profile, nw.N())
		for i := range u {
			u[i] = rng.Float64() * 50
		}
		o := m.Run(u)
		info, err := Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		// The declared axioms: cost recovery only where a budget-balance
		// guarantee is declared.
		if err := Verify(info, u, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Guarantees.Efficient && o.TotalShares() > o.Cost+1e-7 {
			// Efficient family: may run a deficit but never a surplus.
			t.Fatalf("%s collected a surplus: %g > %g", name, o.TotalShares(), o.Cost)
		}
		if err := VerifyStrategyproof(m, u); err != nil {
			t.Fatalf("%s not strategyproof: %v", name, err)
		}
	}
}

func TestByNameValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nw2 := NewEuclideanNetwork(smallCloud(rng, 5, 2), 2, 0)
	if _, err := ByName("alpha1-shapley", nw2); err == nil {
		t.Error("alpha1 on α=2 accepted")
	}
	if _, err := ByName("line-mc", nw2); err == nil {
		t.Error("line mechanism on d=2 accepted")
	}
	if _, err := ByName("bogus", nw2); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestOptimalCostDispatch(t *testing.T) {
	nw := NewEuclideanNetwork([][]float64{{0}, {1}, {2}}, 2, 0)
	if got := OptimalCost(nw, []int{2}); math.Abs(got-2) > 1e-9 {
		t.Errorf("line optimal = %g want 2 (two unit hops)", got)
	}
	if OptimalCost(nw, nil) != 0 {
		t.Error("empty R should cost 0")
	}
}

// TestMoatRejectsBadWeights: a custom moat weight outside the family
// (finite f_i > 0) panics at construction, naming the agent and its
// weight, instead of building a mechanism that drops the agent on a NaN
// share.
func TestMoatRejectsBadWeights(t *testing.T) {
	nw, err := Spec{Scenario: "uniform", N: 8, Alpha: 2, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				want := fmt.Sprintf("agent 4 has growth weight %v", bad)
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("f(4) = %v: recovered %v, want a panic naming %q", bad, r, want)
				}
			}()
			Moat(nw, func(a int) float64 {
				if a == 4 {
					return bad
				}
				return 2
			})
		}()
	}
	u := make([]float64, nw.N())
	for _, a := range nw.AllReceivers() {
		u[a] = 1e6
	}
	if o := Moat(nw, func(a int) float64 { return 1 + float64(a%3) }).Run(u); len(o.Receivers) != nw.N()-1 {
		t.Errorf("a valid weighted member served %v, want every receiver", o.Receivers)
	}
}

// End-to-end smoke: the BB mechanism recovers cost and stays within the
// paper's bound on a small network, via only the public API.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := NewEuclideanNetwork(smallCloud(rng, 8, 2), 2, 0)
	m := WirelessBudgetBalanced(nw)
	u := make(Profile, nw.N())
	for i := range u {
		u[i] = 1e8
	}
	o := m.Run(u)
	if len(o.Receivers) != nw.N()-1 {
		t.Fatalf("receivers = %v", o.Receivers)
	}
	opt := OptimalCost(nw, o.Receivers)
	if o.TotalShares() < o.Cost-1e-7 {
		t.Error("cost recovery failed")
	}
	k := float64(len(o.Receivers))
	if o.TotalShares() > 2*(1+2*math.Log(k))*opt+1e-7 {
		t.Errorf("shares %g far above bound (opt %g)", o.TotalShares(), opt)
	}
}

// Serving smoke via only the public API: register a spec, serve one
// query over HTTP, and watch the repeat hit the cache byte-identically.
func TestPublicServingSurface(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterSpec(Spec{Name: "pub", Scenario: "uniform", N: 8, Alpha: 2, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, ServeOptions{})
	defer s.Close()
	entry, ok := reg.Get("pub")
	if !ok {
		t.Fatal("registered network missing")
	}
	body := `{"network":"pub","mech":"universal-shapley","profile":[0,5,5,5,5,5,5,5]}`
	post := func() (*httptest.ResponseRecorder, string) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body)))
		return w, w.Header().Get("X-Wmcs-Cache")
	}
	cold, src1 := post()
	warm, src2 := post()
	if cold.Code != 200 || warm.Code != 200 {
		t.Fatalf("status %d/%d: %s", cold.Code, warm.Code, cold.Body.String())
	}
	if src1 != "miss" || src2 != "hit" {
		t.Fatalf("cache sources %q/%q, want miss/hit", src1, src2)
	}
	if cold.Body.String() != warm.Body.String() {
		t.Fatal("cache hit not byte-identical to cold response")
	}
	if entry.Ev == nil || entry.Net.N() != 8 {
		t.Fatalf("registry entry malformed: %+v", entry)
	}
}

// Lifecycle smoke via only the public API: mutate a network through the
// aliased ops, drive a versioned evaluator, and PATCH a hosted network
// over HTTP watching the version advance.
func TestPublicLifecycleSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw := NewEuclideanNetwork(smallCloud(rng, 8, 2), 2, 0)
	if nw.Version() != 0 {
		t.Fatalf("fresh version %d", nw.Version())
	}
	v := NewVersionedEvaluator(nw)
	u := make(Profile, nw.N())
	for i := 1; i < nw.N(); i++ {
		u[i] = 25
	}
	before, err := v.Evaluator().Evaluate(MechUniversalShapley, nil, u)
	if err != nil {
		t.Fatal(err)
	}
	up := NetworkUpdate{Moves: []MoveOp{{Station: 2, Point: []float64{0.5, 0.5}}}}
	if res, err := v.Update(up.Apply); err != nil || res.NewVersion != 1 {
		t.Fatalf("Update: %+v err=%v", res, err)
	}
	after, err := v.Evaluator().Evaluate(MechUniversalShapley, nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cost == after.Cost {
		t.Log("note: move left the tree cost unchanged (possible but unusual)")
	}

	// And over HTTP: PATCH bumps the hosted network's version.
	reg := NewRegistry()
	if err := reg.RegisterSpec(Spec{Name: "live", Scenario: "uniform", N: 8, Alpha: 2, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, ServeOptions{})
	defer s.Close()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("PATCH", "/v1/networks/live",
		strings.NewReader(`{"move":[{"station":3,"point":[1.0,2.0]}]}`)))
	if w.Code != 200 {
		t.Fatalf("PATCH: %d %s", w.Code, w.Body.String())
	}
	entry, _ := reg.Get("live")
	if got := entry.Ev.Version(); got != 1 {
		t.Fatalf("hosted version %d after PATCH, want 1", got)
	}
}
