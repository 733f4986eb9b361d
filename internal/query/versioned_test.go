package query

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/mech"
	"wmcs/internal/wireless"
)

func symNet(n int, seed int64) *wireless.Network {
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 0.5+rng.Float64()*9.5)
		}
	}
	return wireless.NewSymmetric(m, 0)
}

func TestVersionedUpdateSwapsAndDrains(t *testing.T) {
	nw := symNet(8, 3)
	v := NewVersioned(nw)
	u := mech.RandomProfile(rand.New(rand.NewSource(9)), 8, 50)

	before := v.Current()
	o1, err := before.Ev.Evaluate("universal-shapley", nil, u)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Update(func(nw *wireless.Network) error {
		_, err := nw.SetCost(1, 2, 0.01)
		return err
	})
	if err != nil || res.OldVersion != 0 || res.NewVersion != 1 {
		t.Fatalf("Update: %+v err=%v", res, err)
	}
	after := v.Current()
	if after == before || after.Version != 1 {
		t.Fatalf("swap missing: %+v", after)
	}
	// The old pair still answers, identically to before the update: an
	// in-flight query that resolved the pair pre-swap drains untouched.
	o1b, err := before.Ev.Evaluate("universal-shapley", nil, u)
	if err != nil || !reflect.DeepEqual(o1, o1b) {
		t.Fatalf("old evaluator drifted after swap: %v / %+v vs %+v", err, o1, o1b)
	}
	// The new pair answers against the mutated network: byte-for-byte
	// what a cold evaluator over the same mutated snapshot computes.
	o2, err := after.Ev.Evaluate("universal-shapley", nil, u)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEvaluator(after.Ev.Network()).Evaluate("universal-shapley", nil, u)
	if err != nil || !reflect.DeepEqual(o2, cold) {
		t.Fatalf("swapped evaluator differs from cold rebuild: %v", err)
	}
	if reflect.DeepEqual(o1, o2) {
		t.Fatal("update had no observable effect (cost change chosen too small?)")
	}
}

func TestVersionedUpdateIsAtomicOnError(t *testing.T) {
	v := NewVersioned(symNet(6, 4))
	before := v.Current()
	sentinel := errors.New("boom")
	res, err := v.Update(func(nw *wireless.Network) error {
		// Partial mutation, then failure: nothing may be published.
		if _, err := nw.SetCost(1, 2, 3); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) || res.OldVersion != res.NewVersion {
		t.Fatalf("Update: %+v err=%v", res, err)
	}
	if cur := v.Current(); cur != before {
		t.Fatal("failed update swapped the pair")
	}
	if c := v.Network().C(1, 2); c == 3 {
		t.Fatal("partial mutation leaked into the published network")
	}
}

func TestVersionedNoOpUpdateKeepsPair(t *testing.T) {
	v := NewVersioned(symNet(6, 5))
	before := v.Current()
	res, err := v.Update(func(nw *wireless.Network) error { return nil })
	if err != nil || res.OldVersion != res.NewVersion || res.Rebuild != 0 {
		t.Fatalf("no-op update: %+v err=%v", res, err)
	}
	if v.Current() != before {
		t.Fatal("no-op update swapped the pair")
	}
}

func TestVersionedWarmRebuild(t *testing.T) {
	v := NewVersioned(symNet(7, 6))
	u := mech.RandomProfile(rand.New(rand.NewSource(2)), 7, 50)
	for _, name := range []string{"universal-shapley", "jv-moat"} {
		if _, err := v.Evaluator().Evaluate(name, nil, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Update(func(nw *wireless.Network) error {
		_, err := nw.SetCost(2, 3, 1.5)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got := v.Evaluator().BuiltNames()
	want := []string{"jv-moat", "universal-shapley"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warmed mechanisms %v, want %v", got, want)
	}
}

func TestVersionedCallerCannotMutateThroughInput(t *testing.T) {
	nw := symNet(6, 7)
	v := NewVersioned(nw)
	if _, err := nw.SetCost(1, 2, 42); err != nil {
		t.Fatal(err)
	}
	if v.Network().C(1, 2) == 42 {
		t.Fatal("caller mutation reached the versioned evaluator's snapshot")
	}
	if v.Version() != 0 {
		t.Fatalf("version %d, want 0", v.Version())
	}
}

// TestVersionedIncrementalReductionSeed: after a single-row SetCost on
// an evaluator that built the MEMT→NWST reduction, the update must
// seed the replacement incrementally (Incremental) and still answer
// byte-identically to a cold evaluator.
func TestVersionedIncrementalReductionSeed(t *testing.T) {
	v := NewVersioned(symNet(9, 7))
	u := mech.RandomProfile(rand.New(rand.NewSource(11)), 9, 50)
	// Warm wireless-bb so the outgoing evaluator owns a reduction donor.
	if _, err := v.Evaluator().Evaluate("wireless-bb", nil, u); err != nil {
		t.Fatal(err)
	}
	res, err := v.Update(func(nw *wireless.Network) error {
		_, err := nw.SetCost(1, 2, nw.C(1, 2)*1.25)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Fatalf("single-row SetCost did not take the incremental path: %+v", res)
	}
	if res.RebuiltMechs != 1 {
		t.Fatalf("warmed %d mechanisms, want 1 (wireless-bb)", res.RebuiltMechs)
	}
	got, err := v.Evaluator().Evaluate("wireless-bb", nil, u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEvaluator(v.Network()).Evaluate("wireless-bb", nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(got, want) {
		t.Fatalf("incremental evaluator diverges from cold\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestVersionedNoOpOpsDoNotRetire: a mutate whose every op is a true
// no-op (same-value SetCost) publishes nothing.
func TestVersionedNoOpOpsDoNotRetire(t *testing.T) {
	v := NewVersioned(symNet(8, 5))
	oldEv := v.Evaluator()
	res, err := v.Update(func(nw *wireless.Network) error {
		_, err := nw.SetCost(1, 2, nw.C(1, 2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVersion != res.OldVersion || !res.Delta.Empty() || res.Rebuild != 0 {
		t.Fatalf("no-op ops published something: %+v", res)
	}
	if v.Evaluator() != oldEv {
		t.Fatal("no-op update swapped the evaluator")
	}
}
