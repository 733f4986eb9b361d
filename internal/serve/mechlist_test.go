package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
)

// TestNetworksListingMatchesEvaluateReality is the regression test for
// the listing bug this PR fixes: /v1/networks used to advertise every
// registry mechanism on every network, including ones whose domain
// check would 422 at evaluate time. Now each network's advertised set
// must match evaluate-time reality exactly: every listed mechanism
// evaluates 200, every unlisted registry mechanism evaluates 422 with
// the structured unsupported_domain code.
func TestNetworksListingMatchesEvaluateReality(t *testing.T) {
	reg := NewRegistry()
	// Three deliberately different domains: planar α=2 (general
	// mechanisms only), a line at α=2 (adds the d=1 specials), and a
	// line at α=1 (everything, α=1 specials included).
	for _, sp := range []instances.Spec{
		{Name: "disk2", Scenario: "disk", N: 9, Alpha: 2, Seed: 1},
		{Name: "line2", Scenario: "line", N: 9, Alpha: 2, Seed: 2},
		{Name: "line1", Scenario: "line", N: 9, Alpha: 1, Seed: 3},
	} {
		if err := reg.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg, Options{})
	defer s.Close()

	w := do(t, s, "GET", "/v1/networks", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list: %d", w.Code)
	}
	var list struct {
		Networks []struct {
			Name       string   `json:"name"`
			Stations   int      `json:"stations"`
			Source     int      `json:"source"`
			Mechanisms []string `json:"mechanisms"`
		} `json:"networks"`
		Mechanisms []string `json:"mechanisms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if strings.Join(list.Mechanisms, ",") != strings.Join(mechreg.Names(), ",") {
		t.Fatalf("top-level mechanisms %v != registry %v", list.Mechanisms, mechreg.Names())
	}
	if len(list.Networks) != 3 {
		t.Fatalf("%d networks listed", len(list.Networks))
	}
	wantListed := map[string]int{"disk2": 4, "line2": 6, "line1": len(mechreg.Names())}
	for _, nwInfo := range list.Networks {
		if got := len(nwInfo.Mechanisms); got != wantListed[nwInfo.Name] {
			t.Errorf("%s advertises %d mechanisms (%v), want %d",
				nwInfo.Name, got, nwInfo.Mechanisms, wantListed[nwInfo.Name])
		}
		listed := map[string]bool{}
		for _, m := range nwInfo.Mechanisms {
			listed[m] = true
		}
		for _, name := range list.Mechanisms {
			req := EvalRequest{Network: nwInfo.Name, Mech: name, Profile: profileFor(nwInfo.Stations, nwInfo.Source, 7)}
			resp := do(t, s, "POST", "/v1/evaluate", req)
			if listed[name] && resp.Code != http.StatusOK {
				t.Errorf("%s lists %s but evaluate returned %d: %s",
					nwInfo.Name, name, resp.Code, resp.Body.String())
			}
			if !listed[name] {
				if resp.Code != http.StatusUnprocessableEntity {
					t.Errorf("%s omits %s but evaluate returned %d, want 422",
						nwInfo.Name, name, resp.Code)
					continue
				}
				var e struct {
					Error   string `json:"error"`
					Code    string `json:"code"`
					Mech    string `json:"mech"`
					Network string `json:"network"`
				}
				if err := json.Unmarshal(resp.Body.Bytes(), &e); err != nil {
					t.Fatal(err)
				}
				if e.Code != "unsupported_domain" || e.Mech != name || e.Network != nwInfo.Name || e.Error == "" {
					t.Errorf("unstructured 422 for %s on %s: %s", name, nwInfo.Name, resp.Body.String())
				}
			}
		}
	}
}

// TestMechanismsEndpoint: /v1/mechanisms serves the registry — names in
// registry order plus the declared metadata clients pick mechanisms by.
func TestMechanismsEndpoint(t *testing.T) {
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
	if len(out.Mechanisms) != len(mechreg.All()) {
		t.Fatalf("%d mechanisms served, registry has %d", len(out.Mechanisms), len(mechreg.All()))
	}
	for i, d := range mechreg.All() {
		m := out.Mechanisms[i]
		if m.Name != d.Name {
			t.Errorf("position %d: %s, registry says %s", i, m.Name, d.Name)
		}
		if m.Domain == "" || m.PaperRef == "" || m.Strategyproofness == "" || m.BudgetBalance == "" {
			t.Errorf("%s: incomplete metadata: %+v", m.Name, m)
		}
	}
}

// TestBatchStructured422: batch elements carry the same structured
// domain-mismatch errors as the single endpoint.
func TestBatchStructured422(t *testing.T) {
	s := newTestServer(t, Options{})
	reqs := []EvalRequest{
		{Network: "uni", Mech: "line-shapley", Profile: profileFor(10, 0, 1)}, // domain mismatch
		{Network: "uni", Mech: "jv-moat", Profile: profileFor(10, 0, 2)},      // fine
	}
	w := do(t, s, "POST", "/v1/batch", reqs)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d", w.Code)
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &elems); err != nil {
		t.Fatal(err)
	}
	var e struct {
		Code string `json:"code"`
		Mech string `json:"mech"`
	}
	if err := json.Unmarshal(elems[0], &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "unsupported_domain" || e.Mech != "line-shapley" {
		t.Fatalf("batch element 0 not structured: %s", elems[0])
	}
	if strings.Contains(string(elems[1]), `"code"`) {
		t.Fatalf("successful element leaked error fields: %s", elems[1])
	}
}
