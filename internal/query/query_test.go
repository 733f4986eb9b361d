package query

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wmcs/internal/euclid1"
	"wmcs/internal/instances"
	"wmcs/internal/jv"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/nwst"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
	"wmcs/internal/wmech"
)

// sameOutcome compares two outcomes for exact (bit-level) equality: the
// determinism contract is byte-identical output, so no tolerances.
func sameOutcome(a, b mech.Outcome) bool {
	if !reflect.DeepEqual(a.Receivers, b.Receivers) || len(a.Shares) != len(b.Shares) {
		return false
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return false
	}
	for i, s := range a.Shares {
		if math.Float64bits(s) != math.Float64bits(b.Shares[i]) {
			return false
		}
	}
	return true
}

// freshMechanism builds the mechanism the pre-Evaluator way: every
// substrate freshly allocated, nothing pooled or cached.
func freshMechanism(t *testing.T, name string, nw *wireless.Network) mech.Mechanism {
	t.Helper()
	switch name {
	case "universal-shapley":
		return universal.ShapleyMechanism(universal.SPT(nw))
	case "universal-mc":
		return universal.MCMechanism(universal.SPT(nw))
	case "wireless-bb":
		return wmech.New(nw, nwst.KleinRaviOracle)
	case "jv-moat":
		return jv.NewMechanism(nw, nil)
	case "alpha1-shapley":
		return euclid1.NewAirportGame(nw).ShapleyMechanism()
	case "line-shapley":
		return euclid1.NewLineGame(nw).ShapleyMechanism()
	}
	t.Fatalf("no fresh constructor for %q", name)
	return nil
}

// TestEvaluatorMatchesFreshAcrossScenarios is the workspace differential
// test at the top layer: for every scenario family in the registry and
// every generally-applicable mechanism, repeated pooled/Reset execution
// through one Evaluator must be byte-identical to fresh-allocation
// execution, on multiple profiles.
func TestEvaluatorMatchesFreshAcrossScenarios(t *testing.T) {
	const n = 9
	names := []string{"universal-shapley", "universal-mc", "wireless-bb", "jv-moat"}
	for si, sc := range instances.Scenarios() {
		rng := rand.New(rand.NewSource(int64(100 + si)))
		nw := sc.Gen(rng, n, 2)
		ev := NewEvaluator(nw, WithOracle(nwst.KleinRaviOracle))
		for _, name := range names {
			fresh := freshMechanism(t, name, nw)
			for trial := 0; trial < 3; trial++ {
				u := mech.RandomProfile(rng, n, 60)
				want := fresh.Run(u)
				got, err := ev.Evaluate(name, nil, u)
				if err != nil {
					t.Fatalf("%s/%s: %v", sc.Name, name, err)
				}
				if !sameOutcome(want, got) {
					t.Fatalf("%s/%s trial %d: evaluator diverged from fresh run\nfresh: %+v\npooled: %+v",
						sc.Name, name, trial, want, got)
				}
				// Second pass through the (now warm) pooled path.
				again, _ := ev.Evaluate(name, nil, u)
				if !sameOutcome(want, again) {
					t.Fatalf("%s/%s trial %d: warm evaluator diverged", sc.Name, name, trial)
				}
			}
		}
	}
}

// TestEvaluatorEuclideanSpecials covers the α=1 and d=1 registry entries
// on their applicable network classes.
func TestEvaluatorEuclideanSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		nw   *wireless.Network
	}{
		{"alpha1-shapley", instances.RandomEuclidean(rng, 8, 2, 1, 10)},
		{"line-shapley", instances.RandomLine(rng, 8, 2, 10)},
	}
	for _, c := range cases {
		ev := NewEvaluator(c.nw)
		fresh := freshMechanism(t, c.name, c.nw)
		for trial := 0; trial < 3; trial++ {
			u := mech.RandomProfile(rng, c.nw.N(), 40)
			want := fresh.Run(u)
			got, err := ev.Evaluate(c.name, nil, u)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !sameOutcome(want, got) {
				t.Fatalf("%s trial %d: evaluator diverged", c.name, trial)
			}
		}
	}
}

// TestEvaluateRestrictsToR checks the receiver-set semantics: Evaluate
// with R must equal running the mechanism on the profile masked to R.
func TestEvaluateRestrictsToR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw := instances.RandomEuclidean(rng, 10, 2, 2, 10)
	ev := NewEvaluator(nw, WithOracle(nwst.KleinRaviOracle))
	u := mech.RandomProfile(rng, nw.N(), 60)
	R := []int{1, 3, 4, 7}
	masked := make(mech.Profile, len(u))
	for _, r := range R {
		masked[r] = u[r]
	}
	for _, name := range []string{"universal-shapley", "wireless-bb", "jv-moat"} {
		want, err := ev.Evaluate(name, nil, masked)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Evaluate(name, R, u)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(want, got) {
			t.Fatalf("%s: R-restricted evaluate diverged from masked profile", name)
		}
		for _, r := range got.Receivers {
			found := false
			for _, x := range R {
				if x == r {
					found = true
				}
			}
			if !found && got.Shares[r] > 0 {
				t.Fatalf("%s: station %d outside R charged %g", name, r, got.Shares[r])
			}
		}
	}
}

// TestEvaluateBatchParallelDeterminism is the acceptance check: a mixed
// batch must be byte-identical at 1 worker and at 8.
func TestEvaluateBatchParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := instances.RandomEuclidean(rng, 10, 2, 2, 10)
	ev := NewEvaluator(nw, WithOracle(nwst.KleinRaviOracle))
	names := []string{"universal-shapley", "universal-mc", "wireless-bb", "jv-moat"}
	var reqs []Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, Request{
			Mech:    names[i%len(names)],
			Profile: mech.RandomProfile(rng, nw.N(), 60),
		})
	}
	serial := ev.EvaluateBatch(reqs, 1)
	parallel := ev.EvaluateBatch(reqs, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch")
	}
	for i := range serial {
		if (serial[i].Err == nil) != (parallel[i].Err == nil) {
			t.Fatalf("request %d: error mismatch", i)
		}
		if !sameOutcome(serial[i].Outcome, parallel[i].Outcome) {
			t.Fatalf("request %d (%s): -parallel 1 vs 8 diverged", i, reqs[i].Mech)
		}
	}
}

// TestEvaluatorErrors covers registry validation through the evaluator:
// failures must carry the registry's typed errors so callers (the
// serving layer's 400-vs-422 mapping) can branch on kind.
func TestEvaluatorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := instances.RandomEuclidean(rng, 6, 2, 2, 10) // α=2, d=2
	ev := NewEvaluator(nw)
	if _, err := ev.Mechanism("alpha1-shapley"); !errors.Is(err, mechreg.ErrUnsupportedDomain) {
		t.Errorf("alpha1 on α=2 network: %v, want ErrUnsupportedDomain", err)
	}
	if _, err := ev.Mechanism("line-mc"); !errors.Is(err, mechreg.ErrUnsupportedDomain) {
		t.Errorf("line on 2-d network: %v, want ErrUnsupportedDomain", err)
	}
	if _, err := ev.Mechanism("bogus"); !errors.Is(err, mechreg.ErrUnknownMechanism) {
		t.Errorf("unknown mechanism: %v, want ErrUnknownMechanism", err)
	}
	if _, err := ev.Evaluate("bogus", nil, mech.Profile{}); !errors.Is(err, mechreg.ErrUnknownMechanism) {
		t.Errorf("Evaluate unknown mechanism: %v, want ErrUnknownMechanism", err)
	}
}

// TestEvaluatorSupported: the per-network supported set is exactly the
// names Evaluate accepts — the contract the serving layer's /v1/networks
// advertisement leans on.
func TestEvaluatorSupported(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		label string
		nw    *wireless.Network
	}{
		{"planar α=2", instances.RandomEuclidean(rng, 7, 2, 2, 10)},
		{"line α=2", instances.RandomLine(rng, 7, 2, 10)},
		{"line α=1", instances.RandomLine(rng, 7, 1, 10)},
		{"symmetric", instances.RandomSymmetric(rng, 7, 0.5, 10)},
	} {
		ev := NewEvaluator(tc.nw)
		supported := map[string]bool{}
		for _, name := range ev.Supported() {
			supported[name] = true
		}
		u := mech.RandomProfile(rng, tc.nw.N(), 40)
		for _, name := range mechreg.Names() {
			_, err := ev.Evaluate(name, nil, u)
			if supported[name] && err != nil {
				t.Errorf("%s: Supported lists %s but Evaluate failed: %v", tc.label, name, err)
			}
			if !supported[name] && !errors.Is(err, mechreg.ErrUnsupportedDomain) {
				t.Errorf("%s: Supported omits %s but Evaluate returned %v", tc.label, name, err)
			}
		}
	}
}
