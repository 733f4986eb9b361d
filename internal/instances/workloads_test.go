package instances

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestSpecBuildDeterministic: equal specs build byte-equal networks;
// different seeds differ.
func TestSpecBuildDeterministic(t *testing.T) {
	for _, scenario := range append([]string{"euclid"}, ScenarioNames()...) {
		s := Spec{Name: "t", Scenario: scenario, N: 9, Alpha: 2, Seed: 42}
		a, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		b, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		if a.N() != 9 || b.N() != 9 {
			t.Fatalf("%s: wrong station count %d/%d", scenario, a.N(), b.N())
		}
		for i := 0; i < a.N(); i++ {
			for j := 0; j < a.N(); j++ {
				if a.C(i, j) != b.C(i, j) {
					t.Fatalf("%s: rebuild diverged at C(%d,%d)", scenario, i, j)
				}
			}
		}
		s2 := s
		s2.Seed = 43
		c, err := s2.Build()
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := 0; i < a.N() && same; i++ {
			for j := 0; j < a.N(); j++ {
				if a.C(i, j) != c.C(i, j) {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds built identical networks", scenario)
		}
	}
}

func TestSpecBuildValidates(t *testing.T) {
	for _, sp := range []Spec{
		{Scenario: "uniform", N: 1},
		{Scenario: "nope", N: 8},
		{Scenario: "uniform", N: MaxStations + 1},
		{Scenario: "uniform", N: 8, Alpha: 0.5},
		{Scenario: "uniform", N: 8, Alpha: -2},
		{Scenario: "uniform", N: 8, Alpha: math.NaN()},
		{Scenario: "uniform", N: 8, Alpha: math.Inf(1)},
		{Scenario: "euclid", N: 8, Dim: -3},
		{Scenario: "euclid", N: 8, Dim: MaxDim + 1},
		// Finite α whose costs reach the disabled-station sentinel
		// (distances up to 10√2 in the square) or overflow to +Inf.
		{Scenario: "uniform", N: 8, Alpha: 12},
		{Scenario: "uniform", N: 8, Alpha: 1e300},
	} {
		if _, err := sp.Build(); err == nil {
			t.Errorf("%+v accepted", sp)
		}
	}
	for _, sp := range []Spec{
		{Scenario: "uniform", N: 8, Alpha: 1},
		{Scenario: "euclid", N: 8, Dim: 1},
		{Scenario: "euclid", N: 8, Dim: MaxDim},
	} {
		if _, err := sp.Build(); err != nil {
			t.Errorf("%+v rejected: %v", sp, err)
		}
	}
}

// TestSpecBuildStationCap: n = MaxStations builds, and n = 1<<40 is
// refused before anything the size of the network is allocated.
func TestSpecBuildStationCap(t *testing.T) {
	nw, err := Spec{Scenario: "uniform", N: MaxStations, Seed: 1}.Build()
	if err != nil {
		t.Fatalf("n = MaxStations rejected: %v", err)
	}
	if nw.N() != MaxStations {
		t.Fatalf("built %d stations, want %d", nw.N(), MaxStations)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Spec{Scenario: "uniform", N: 1 << 40, Seed: 1}.Build()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("n = 1<<40 accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
		t.Fatalf("rejecting n = 1<<40 allocated %d bytes", d)
	}
}

// TestWorkloadStreamsDeterministic: equal seeds give equal query streams,
// for every registry workload.
func TestWorkloadStreamsDeterministic(t *testing.T) {
	nw, err := Spec{Scenario: "uniform", N: 12, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		a := w.New(rand.New(rand.NewSource(3)), nw, WorkloadOptions{})
		b := w.New(rand.New(rand.NewSource(3)), nw, WorkloadOptions{})
		for i := 0; i < 200; i++ {
			qa, qb := a.Next(), b.Next()
			if !reflect.DeepEqual(qa, qb) {
				t.Fatalf("%s: stream diverged at query %d", w.Name, i)
			}
			if len(qa.R) == 0 {
				t.Fatalf("%s: empty receiver set at query %d", w.Name, i)
			}
			for k := 1; k < len(qa.R); k++ {
				if qa.R[k-1] >= qa.R[k] {
					t.Fatalf("%s: receiver set not sorted/unique: %v", w.Name, qa.R)
				}
			}
			if src := nw.Source(); qa.U[src] != 0 {
				t.Fatalf("%s: source carries utility %g", w.Name, qa.U[src])
			}
		}
	}
}

// TestHotSetRepeats: the Zipf hot-set sampler repeats queries — the
// property the serving cache feeds on — while uniform essentially never
// does.
func TestHotSetRepeats(t *testing.T) {
	nw, err := Spec{Scenario: "uniform", N: 14, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(name string, draws int) int {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := w.New(rand.New(rand.NewSource(11)), nw, WorkloadOptions{HotSets: 16})
		seen := map[string]bool{}
		for i := 0; i < draws; i++ {
			q := s.Next()
			key := ""
			for _, r := range q.R {
				key += string(rune(r)) + ":"
			}
			for _, u := range q.U {
				key += string(rune(int(u*1000))) + ","
			}
			seen[key] = true
		}
		return len(seen)
	}
	if d := distinct("hotset", 400); d > 16 {
		t.Fatalf("hotset drew %d distinct queries from a pool of 16", d)
	}
	if d := distinct("uniform", 400); d < 390 {
		t.Fatalf("uniform repeated itself: only %d distinct in 400", d)
	}
}
