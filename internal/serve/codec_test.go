package serve

import (
	"strings"
	"testing"

	"wmcs/internal/mech"
)

func TestCanonicalizeFoldsRIntoProfile(t *testing.T) {
	// (R, u) must key identically to (nil, mask(u)): the mechanism only
	// ever sees the masked profile.
	full := []float64{0, 5, 7, 3, 9}
	a, err := Canonicalize(EvalRequest{Network: "n", Mech: "universal-shapley", R: []int{3, 1, 3}, Profile: full}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	masked := []float64{0, 5, 0, 3, 0}
	b, err := Canonicalize(EvalRequest{Network: "n", Mech: "universal-shapley", Profile: masked}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatalf("restricted and pre-masked requests keyed differently:\n%q\n%q", a.Key, b.Key)
	}
	// Reporting zero is identical to not requesting: dropping index 3
	// from R but zeroing its utility gives the same key as excluding it.
	c, err := Canonicalize(EvalRequest{Network: "n", Mech: "universal-shapley", R: []int{1}, Profile: full}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Canonicalize(EvalRequest{Network: "n", Mech: "universal-shapley", Profile: []float64{0, 5, 0, 0, 0}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key != d.Key {
		t.Fatalf("zero-report and non-request keyed differently")
	}
}

func TestCanonicalizeQuantizes(t *testing.T) {
	mk := func(v float64) string {
		c, err := Canonicalize(EvalRequest{Network: "n", Mech: "jv-moat", Profile: []float64{0, v}}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c.Key
	}
	if mk(1.00000049) != mk(1.0) {
		t.Fatal("sub-grid difference changed the key")
	}
	if mk(1.0000006) == mk(1.0) {
		t.Fatal("super-grid difference did not change the key")
	}
	// The source utility never reaches the key.
	a, _ := Canonicalize(EvalRequest{Network: "n", Mech: "jv-moat", Profile: []float64{42, 1}}, 2, 0)
	b, _ := Canonicalize(EvalRequest{Network: "n", Mech: "jv-moat", Profile: []float64{0, 1}}, 2, 0)
	if a.Key != b.Key {
		t.Fatal("source utility leaked into the key")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		req  EvalRequest
	}{
		{"unknown mech", EvalRequest{Mech: "nope", Profile: []float64{0, 1}}},
		{"short profile", EvalRequest{Mech: "jv-moat", Profile: []float64{0}}},
		{"long profile", EvalRequest{Mech: "jv-moat", Profile: []float64{0, 1, 2}}},
		{"receiver out of range", EvalRequest{Mech: "jv-moat", R: []int{2}, Profile: []float64{0, 1}}},
		{"negative receiver", EvalRequest{Mech: "jv-moat", R: []int{-1}, Profile: []float64{0, 1}}},
		{"negative utility", EvalRequest{Mech: "jv-moat", Profile: []float64{0, -1}}},
		{"nan utility", EvalRequest{Mech: "jv-moat", Profile: []float64{0, nan()}}},
		{"nan outside R", EvalRequest{Mech: "jv-moat", R: []int{0}, Profile: []float64{1, nan()}}},
		{"negative outside R", EvalRequest{Mech: "jv-moat", R: []int{0}, Profile: []float64{1, -2}}},
		// v/Quantum overflows float64 near 1.8e302: a finite wire
		// utility with no grid point must be rejected, not
		// canonicalized to +Inf (REVIEW: NaN shares downstream).
		{"grid overflow", EvalRequest{Mech: "jv-moat", Profile: []float64{0, 1e303}}},
		{"grid overflow outside R", EvalRequest{Mech: "jv-moat", R: []int{0}, Profile: []float64{1, 1e303}}},
	}
	for _, c := range cases {
		if _, err := Canonicalize(c.req, 2, 0); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func nan() float64 { var z float64; return z / z }

func TestEncodeOutcomeDeterministic(t *testing.T) {
	o := mech.Outcome{
		Receivers: []int{1, 3, 4},
		Shares:    map[int]float64{4: 2.5, 1: 1.25, 3: 0.125},
		Cost:      3.875,
	}
	ab, err := EncodeOutcome("net", "jv-moat", o)
	if err != nil {
		t.Fatal(err)
	}
	a := string(ab)
	for i := 0; i < 50; i++ {
		bb, err := EncodeOutcome("net", "jv-moat", o)
		if err != nil {
			t.Fatal(err)
		}
		if b := string(bb); b != a {
			t.Fatalf("encoding varied across calls:\n%s\n%s", a, b)
		}
	}
	if !strings.Contains(a, `"shares":[{"agent":1,"share":1.25},{"agent":3,"share":0.125},{"agent":4,"share":2.5}]`) {
		t.Fatalf("shares not sorted by agent: %s", a)
	}
	// Empty outcomes encode arrays, not nulls.
	eb, err := EncodeOutcome("net", "jv-moat", mech.Outcome{})
	if err != nil {
		t.Fatal(err)
	}
	if e := string(eb); strings.Contains(e, "null") {
		t.Fatalf("empty outcome encoded null: %s", e)
	}
	// An unrepresentable outcome is an error, never a panic: the caller
	// answers it as a 500.
	if _, err := EncodeOutcome("net", "jv-moat", mech.Outcome{Shares: map[int]float64{0: nan()}}); err == nil {
		t.Fatal("NaN share encoded without error")
	}
}
