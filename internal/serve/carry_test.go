package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
)

// patch sends one PATCH and decodes the success body.
func patch(t *testing.T, s *Server, name string, up instances.Update) updateResponse {
	t.Helper()
	w := do(t, s, "PATCH", "/v1/networks/"+name, up)
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH %s: %d %s", name, w.Code, w.Body.String())
	}
	var ur updateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	return ur
}

// TestPatchNoOpRetiresNothing: a PATCH whose every op is a true no-op
// (same-value SetCost) answers 200 with zero ops, bumps nothing, and
// leaves the cached entries hot — the next request is a hit at the
// same version.
func TestPatchNoOpRetiresNothing(t *testing.T) {
	sp := instances.Spec{Name: "noop", Scenario: "symmetric", N: 8, Seed: 41}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	entry, _ := reg.Get("noop")
	req := EvalRequest{Network: "noop", Mech: "universal-shapley", Profile: profileFor(8, 0, 5)}
	warm := do(t, s, "POST", "/v1/evaluate", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", warm.Code, warm.Body.String())
	}
	before := statszFor(t, s)
	ur := patch(t, s, "noop", instances.Update{SetCosts: []instances.CostSet{
		{I: 1, J: 2, Cost: entry.Net.C(1, 2)},
	}})
	if ur.Ops != 0 || ur.Version != ur.OldVersion || ur.CacheEntriesDropped != 0 || ur.CarriedEntries != 0 {
		t.Fatalf("no-op PATCH response: %+v", ur)
	}
	if v := entry.Ev.Version(); v != 0 {
		t.Fatalf("no-op PATCH advanced the version to %d", v)
	}
	after := statszFor(t, s)
	if after.Updates != before.Updates || after.RebuildUS.Count != before.RebuildUS.Count {
		t.Fatalf("no-op PATCH counted as an update: %+v -> %+v", before, after)
	}
	if w := do(t, s, "POST", "/v1/evaluate", req); w.Header().Get("X-Wmcs-Cache") != "hit" ||
		!bytes.Equal(w.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("no-op PATCH retired the cached entry")
	}
}

// TestPatchUnchangedCarriesEverything: a disable+enable round trip in
// one PATCH cancels out bitwise, so the outgoing evaluator is
// republished and *every* cached entry — the sampled tier included —
// is carried to the new version verbatim: the first post-update
// request is a hit with byte-identical bodies.
func TestPatchUnchangedCarriesEverything(t *testing.T) {
	sp := instances.Spec{Name: "flip", Scenario: "symmetric", N: 8, Seed: 43}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	wire := profileFor(8, 0, 7)
	reqs := []EvalRequest{
		{Network: "flip", Mech: "universal-shapley", Profile: wire},
		{Network: "flip", Mech: "universal-mc", Profile: wire},
		{Network: "flip", Mech: "universal-shapley", Profile: wire,
			Approx: &ApproxWire{Samples: 64, Delta: 0.1, Seed: 5}},
	}
	warm := make([]*bytes.Buffer, len(reqs))
	for i, req := range reqs {
		w := do(t, s, "POST", "/v1/evaluate", req)
		if w.Code != http.StatusOK {
			t.Fatalf("warm %d: %d %s", i, w.Code, w.Body.String())
		}
		warm[i] = w.Body
	}
	ur := patch(t, s, "flip", instances.Update{Disable: []int{3}, Enable: []int{3}})
	if !ur.Incremental || ur.Ops != 2 {
		t.Fatalf("round-trip PATCH response: %+v", ur)
	}
	if ur.CarriedEntries != len(reqs) {
		t.Fatalf("carried %d entries, want %d", ur.CarriedEntries, len(reqs))
	}
	if st := statszFor(t, s); st.CarriedEntries != uint64(len(reqs)) || st.RebuildIncrementalUS.Count != 1 {
		t.Fatalf("statsz after unchanged PATCH: carried=%d inc=%d", st.CarriedEntries, st.RebuildIncrementalUS.Count)
	}
	for i, req := range reqs {
		w := do(t, s, "POST", "/v1/evaluate", req)
		if src := w.Header().Get("X-Wmcs-Cache"); src != "hit" {
			t.Fatalf("req %d post-carry was a %q, want hit", i, src)
		}
		if !bytes.Equal(w.Body.Bytes(), warm[i].Bytes()) {
			t.Fatalf("req %d carried bytes differ\nwas: %s\nnow: %s", i, warm[i], w.Body)
		}
	}
}

// TestPatchCarryAlpha1ShapleyPredicate drives the one registry
// CarrySafe predicate end to end: on an α = 1 Euclidean network, move
// a station outside a query's support — the alpha1-shapley entry is
// carried (and must equal a cold evaluation on the mutated replica),
// while the alpha1-mc entry (no predicate) and any entry whose support
// contains the moved station are recomputed.
func TestPatchCarryAlpha1ShapleyPredicate(t *testing.T) {
	sp := instances.Spec{Name: "a1", Scenario: "uniform", N: 9, Alpha: 1, Seed: 47}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	entry, _ := reg.Get("a1")
	const moved = 4
	// outside: support excludes the moved station; inside: includes it.
	outside := profileFor(9, entry.Net.Source(), 9)
	outside[moved] = 0
	inside := profileFor(9, entry.Net.Source(), 9)
	reqSafe := EvalRequest{Network: "a1", Mech: mechreg.Alpha1Shapley, Profile: outside}
	reqIn := EvalRequest{Network: "a1", Mech: mechreg.Alpha1Shapley, Profile: inside}
	reqMC := EvalRequest{Network: "a1", Mech: mechreg.Alpha1MC, Profile: outside}
	for _, req := range []EvalRequest{reqSafe, reqIn, reqMC} {
		if w := do(t, s, "POST", "/v1/evaluate", req); w.Code != http.StatusOK {
			t.Fatalf("warm %s: %d %s", req.Mech, w.Code, w.Body.String())
		}
	}

	p := entry.Net.Points()[moved].Clone()
	p[0] += 0.35
	up := instances.Update{Moves: []instances.MoveOp{{Station: moved, Point: p}}}
	replica, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Apply(replica); err != nil {
		t.Fatal(err)
	}
	ur := patch(t, s, "a1", up)
	if ur.CarriedEntries != 1 {
		t.Fatalf("carried %d entries, want exactly the out-of-support alpha1-shapley one (%+v)", ur.CarriedEntries, ur)
	}

	// The carried entry: a hit, byte-identical to a cold evaluation of
	// the same canonical query on the mutated replica.
	w := do(t, s, "POST", "/v1/evaluate", reqSafe)
	if src := w.Header().Get("X-Wmcs-Cache"); src != "hit" {
		t.Fatalf("carried entry served as %q, want hit", src)
	}
	c, err := Canonicalize(reqSafe, 9, replica.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := query.NewEvaluator(replica).Mechanism(mechreg.Alpha1Shapley)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeOutcome("a1", mechreg.Alpha1Shapley, m.Run(c.Profile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("carried alpha1-shapley bytes differ from cold evaluation on the moved network\ncarried: %s\ncold:    %s",
			w.Body.String(), want)
	}

	// The other two were rightly not carried.
	for _, req := range []EvalRequest{reqIn, reqMC} {
		if w := do(t, s, "POST", "/v1/evaluate", req); w.Header().Get("X-Wmcs-Cache") != "miss" {
			t.Fatalf("%s with the moved station in scope was not recomputed", req.Mech)
		}
	}
}

// TestSupportFromKey pins the key-parsing half of the carry pass.
func TestSupportFromKey(t *testing.T) {
	cases := []struct {
		rest string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"3=0x1p+1", []int{3}, true},
		{"1=0x1p+1\x1f7=0x1.8p+3", []int{1, 7}, true},
		{"junk", nil, false},
		{"-1=0x1p+1", nil, false},
		{"x=0x1p+1", nil, false},
	}
	for _, c := range cases {
		got, ok := supportFromKey(c.rest)
		if ok != c.ok || len(got) != len(c.want) {
			t.Fatalf("supportFromKey(%q) = %v, %v; want %v, %v", c.rest, got, ok, c.want, c.ok)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("supportFromKey(%q) = %v, want %v", c.rest, got, c.want)
			}
		}
	}
}
