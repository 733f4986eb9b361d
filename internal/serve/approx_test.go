package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"wmcs/internal/mechreg"
)

// This file pins the serving contract of the approximate tier
// (DESIGN.md §11): the "approx" field canonicalizes deterministically,
// its cache keys are disjoint from the exact tier's (and from every
// other spec's), a malformed spec is a structured 422 — never a 500 —
// and /v1/mechanisms advertises exactly the mechanisms whose descriptor
// declares the tier.

// TestApproxCanonicalizationRoundTrips: canonicalizing the same wire
// request twice — or semantically equal variants of it — yields the
// same key; any change to the spec yields a different key.
func TestApproxCanonicalizationRoundTrips(t *testing.T) {
	base := EvalRequest{
		Network: "uni",
		Mech:    mechreg.UniversalShapley,
		Profile: profileFor(10, 0, 3),
		Approx:  &ApproxWire{Samples: 128, Delta: 0.05, Seed: 42},
	}
	c1, err := Canonicalize(base, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonicalize(base, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Key != c2.Key {
		t.Fatalf("same request, different keys:\n%q\n%q", c1.Key, c2.Key)
	}
	if c1.Approx == nil || *c1.Approx != *c2.Approx {
		t.Fatalf("spec did not round-trip: %+v vs %+v", c1.Approx, c2.Approx)
	}
	// Sub-grid profile noise still collapses onto the same key with the
	// spec attached.
	noisy := base
	noisy.Profile = append([]float64(nil), base.Profile...)
	noisy.Profile[4] += Quantum / 8
	cn, err := Canonicalize(noisy, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Key != c1.Key {
		t.Fatal("sub-grid noise changed an approx key")
	}
	// Every single-field perturbation of the spec moves the key.
	for _, mut := range []ApproxWire{
		{Samples: 129, Delta: 0.05, Seed: 42},
		{Samples: 128, Delta: 0.051, Seed: 42},
		{Samples: 128, Delta: 0.05, Seed: 43},
	} {
		r := base
		m := mut
		r.Approx = &m
		cm, err := Canonicalize(r, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cm.Key == c1.Key {
			t.Fatalf("spec %+v collides with %+v", mut, *base.Approx)
		}
	}
}

// TestApproxExactKeysDisjoint: across random profiles and specs, an
// approx request never shares a key with its exact twin, nor with any
// other (profile, spec) combination.
func TestApproxExactKeysDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seen := map[string]string{} // key -> description
	record := func(key, desc string) {
		if prev, ok := seen[key]; ok && prev != desc {
			t.Fatalf("key collision between %s and %s", prev, desc)
		}
		seen[key] = desc
	}
	for trial := 0; trial < 40; trial++ {
		profile := make([]float64, 10)
		for i := 1; i < 10; i++ {
			profile[i] = float64(rng.Intn(6))
		}
		req := EvalRequest{Network: "uni", Mech: mechreg.UniversalShapley, Profile: profile}
		exact, err := Canonicalize(req, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		record(exact.Key, "exact/"+exact.Key)
		for _, spec := range []ApproxWire{
			{Samples: 1 + rng.Intn(500), Delta: 0.01 + rng.Float64()*0.5, Seed: rng.Int63n(100)},
			{Samples: 64, Delta: 0.05},
			{Samples: 64, Delta: 0.05, Seed: 7},
		} {
			s := spec
			req.Approx = &s
			approx, err := Canonicalize(req, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			if approx.Key == exact.Key {
				t.Fatalf("approx %+v collides with its exact twin: %q", spec, exact.Key)
			}
			record(approx.Key, "approx/"+approx.Key)
		}
		req.Approx = nil
	}
}

// FuzzCanonicalizeApprox: for arbitrary spec parameters, Canonicalize
// either rejects with an error wrapping ErrBadApprox (exactly when the
// spec violates its contract) or accepts deterministically with a key
// disjoint from the exact tier's.
func FuzzCanonicalizeApprox(f *testing.F) {
	f.Add(64, 0.05, int64(0))
	f.Add(1, 0.999, int64(-3))
	f.Add(0, 0.05, int64(1))   // samples < 1: reject
	f.Add(100, 0.0, int64(0))  // delta at the open boundary: reject
	f.Add(100, 1.0, int64(0))  // delta at the other boundary: reject
	f.Add(100, -0.2, int64(5)) // negative delta: reject
	f.Add(100, math.NaN(), int64(0))
	f.Add(100, math.Inf(1), int64(0))
	f.Fuzz(func(t *testing.T, samples int, delta float64, seed int64) {
		req := EvalRequest{
			Network: "uni",
			Mech:    mechreg.UniversalShapley,
			Profile: profileFor(10, 0, 11),
			Approx:  &ApproxWire{Samples: samples, Delta: delta, Seed: seed},
		}
		c, err := Canonicalize(req, 10, 0)
		valid := samples >= 1 && delta > 0 && delta < 1 // NaN fails both comparisons
		if valid != (err == nil) {
			t.Fatalf("samples=%d delta=%v: valid=%v but err=%v", samples, delta, valid, err)
		}
		if err != nil {
			if !errors.Is(err, ErrBadApprox) {
				t.Fatalf("invalid spec produced a non-ErrBadApprox error: %v", err)
			}
			return
		}
		again, err := Canonicalize(req, 10, 0)
		if err != nil || again.Key != c.Key {
			t.Fatalf("accepted spec did not round-trip: %v, %q vs %q", err, again.Key, c.Key)
		}
		exactReq := req
		exactReq.Approx = nil
		exact, err := Canonicalize(exactReq, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Key == c.Key {
			t.Fatalf("approx key equals exact key: %q", c.Key)
		}
	})
}

// TestEvaluateApproxEndToEnd: an approx request answers 200 with a
// certificate in the body, replays byte-identically from the cache, and
// never collides with the exact result for the same profile.
func TestEvaluateApproxEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	profile := profileFor(10, 0, 7)
	exactReq := EvalRequest{Network: "uni", Mech: mechreg.UniversalShapley, Profile: profile}
	approxReq := exactReq
	approxReq.Approx = &ApproxWire{Samples: 256, Delta: 0.05, Seed: 1}

	exact := do(t, s, "POST", "/v1/evaluate", exactReq)
	if exact.Code != http.StatusOK {
		t.Fatalf("exact: %d %s", exact.Code, exact.Body.String())
	}
	cold := do(t, s, "POST", "/v1/evaluate", approxReq)
	if cold.Code != http.StatusOK {
		t.Fatalf("approx cold: %d %s", cold.Code, cold.Body.String())
	}
	if cold.Header().Get("X-Wmcs-Cache") != "miss" {
		// The exact request above must not have warmed the approx key.
		t.Fatalf("approx cold was a %q", cold.Header().Get("X-Wmcs-Cache"))
	}
	var resp EvalResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Approx == nil {
		t.Fatalf("approx response carries no certificate: %s", cold.Body.String())
	}
	cert := resp.Approx
	if cert.Samples != 256 || cert.Delta != 0.05 || !(cert.Epsilon > 0) || math.IsInf(cert.Epsilon, 0) {
		t.Fatalf("malformed certificate: %+v", cert)
	}
	var exactResp EvalResponse
	if err := json.Unmarshal(exact.Body.Bytes(), &exactResp); err != nil {
		t.Fatal(err)
	}
	if exactResp.Approx != nil {
		t.Fatal("exact response leaked an approx certificate")
	}
	warm := do(t, s, "POST", "/v1/evaluate", approxReq)
	if warm.Header().Get("X-Wmcs-Cache") != "hit" {
		t.Fatalf("approx warm was a %q", warm.Header().Get("X-Wmcs-Cache"))
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("approx cache replay is not byte-identical")
	}
	// The exact entry is still intact and still certificate-free.
	exact2 := do(t, s, "POST", "/v1/evaluate", exactReq)
	if exact2.Header().Get("X-Wmcs-Cache") != "hit" || !bytes.Equal(exact.Body.Bytes(), exact2.Body.Bytes()) {
		t.Fatal("approx traffic perturbed the exact cache entry")
	}
	// A different seed is a different query: fresh computation, its own
	// entry.
	reseeded := approxReq
	reseeded.Approx = &ApproxWire{Samples: 256, Delta: 0.05, Seed: 2}
	other := do(t, s, "POST", "/v1/evaluate", reseeded)
	if other.Code != http.StatusOK || other.Header().Get("X-Wmcs-Cache") != "miss" {
		t.Fatalf("reseeded approx: %d source %q", other.Code, other.Header().Get("X-Wmcs-Cache"))
	}
}

// TestApproxErrorsAreStructured422: a malformed spec or a tier-less
// mechanism answers a structured 422 with a branchable code — not a 400
// (the request decoded fine) and not a 500 (nothing is the server's
// fault).
func TestApproxErrorsAreStructured422(t *testing.T) {
	s := newTestServer(t, Options{})
	check := func(req EvalRequest, wantCode string) {
		t.Helper()
		w := do(t, s, "POST", "/v1/evaluate", req)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s), want 422", wantCode, w.Code, w.Body.String())
		}
		var e errBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != wantCode || e.Error == "" || e.Mech != req.Mech {
			t.Fatalf("unstructured 422: %s", w.Body.String())
		}
	}
	profile := profileFor(10, 0, 5)
	for _, spec := range []ApproxWire{
		{Samples: 0, Delta: 0.05},
		{Samples: -7, Delta: 0.05},
		{Samples: 64, Delta: 0},
		{Samples: 64, Delta: 1},
		{Samples: 64, Delta: -0.1},
		{Samples: 64, Delta: 17},
	} {
		sp := spec
		check(EvalRequest{Network: "uni", Mech: mechreg.UniversalShapley, Profile: profile, Approx: &sp}, "bad_approx")
	}
	// jv-moat declares no sampled tier: valid spec, wrong mechanism.
	check(EvalRequest{Network: "uni", Mech: mechreg.JVMoat, Profile: profile,
		Approx: &ApproxWire{Samples: 64, Delta: 0.05}}, "no_approx_tier")
}

// TestMechanismsAdvertiseApprox: the /v1/mechanisms approx flag equals
// the descriptor's declaration for every registry row — the listing and
// evaluate-time reality can never disagree (conformance pins the
// declaration against the built mechanism).
func TestMechanismsAdvertiseApprox(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(t, s, "GET", "/v1/mechanisms", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("mechanisms: %d", w.Code)
	}
	var out struct {
		Mechanisms []mechInfo `json:"mechanisms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	any := false
	for i, d := range mechreg.All() {
		if got := out.Mechanisms[i].Approx; got != d.Approx {
			t.Errorf("%s: listing says approx=%v, descriptor says %v", d.Name, got, d.Approx)
		}
		any = any || d.Approx
	}
	if !any {
		t.Fatal("no registry mechanism declares a sampled tier — the flag test is vacuous")
	}
}
