package nwst

import (
	"math/rand"
	"reflect"
	"testing"

	"wmcs/internal/engine"
)

// withFreeSource marks the first terminal of a randomInstance free, the
// shape the wireless reduction produces.
func withFreeSource(in Instance) Instance {
	free := make([]bool, len(in.Terminals))
	free[0] = true
	in.Free = free
	return in
}

// runGreedy drives a state through the oracle/shrink loop the way Solve
// and the mechanisms do, recording every spider it selects.
func runGreedy(t *testing.T, st *State, oracle Oracle) []Spider {
	t.Helper()
	var picked []Spider
	for {
		live := st.LiveTerminals()
		if len(live) <= 2 {
			break
		}
		minCover := len(st.PayingTerminals())
		if minCover > 3 {
			minCover = 3
		}
		sp, ok := oracle(st, minCover)
		if !ok {
			break
		}
		picked = append(picked, sp)
		st.Shrink(sp)
	}
	return picked
}

// TestResetMatchesFresh is the workspace differential test at the solver
// layer: a pooled, Reset state must produce byte-identical oracle
// decisions to a freshly allocated state, across both oracles and many
// random instances, including after full contraction runs.
func TestResetMatchesFresh(t *testing.T) {
	oracles := map[string]Oracle{"klein-ravi": KleinRaviOracle, "branch": BranchSpiderOracle}
	for name, oracle := range oracles {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 12; trial++ {
			in := withFreeSource(randomInstance(rng, 10+rng.Intn(8), 4+rng.Intn(3)))
			fresh := NewState(in)
			// Dirty a second state with a full greedy run, then Reset it:
			// it must replay the fresh state's decisions exactly.
			reused := NewState(in)
			runGreedy(t, reused, oracle)
			reused.Reset(in.Terminals, in.Free)

			want := runGreedy(t, fresh, oracle)
			got := runGreedy(t, reused, oracle)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s trial %d: reset state diverged\nfresh: %+v\nreset: %+v", name, trial, want, got)
			}
		}
	}
}

// TestStatePoolDifferential checks that states cycling through a pool
// behave identically to fresh states for Solve-style use: several
// terminal sets over one host graph, all served by the pool's one table
// of uncontracted rows, with both oracles, the branch oracle at widths
// 1 and 4.
func TestStatePoolDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := withFreeSource(randomInstance(rng, 14, 5))
	sets := []Instance{in}
	for k := 3; k <= 6; k++ {
		terms := append([]int{in.Terminals[0]}, rng.Perm(in.G.N())[:k]...)
		sets = append(sets, withFreeSource(Instance{G: in.G, Weights: in.Weights, Terminals: dedup(terms)}))
	}
	wide := engine.New(4)
	for name, oracle := range map[string]Oracle{
		"kr/w1":     KleinRaviOracle,
		"branch/w1": BranchSpiderOracle,
		"branch/w4": BranchSpiderOracleOn(wide),
	} {
		pool := NewStatePool(in)
		for round := 0; round < 3; round++ {
			for i, set := range sets {
				want := runGreedy(t, NewState(set), oracle)
				st := pool.Get(set.Terminals, set.Free)
				got := runGreedy(t, st, oracle)
				pool.Put(st)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s round %d set %d: pooled state diverged\nfresh:  %+v\npooled: %+v", name, round, i, want, got)
				}
			}
		}
	}
}

// dedup drops repeated vertex ids, keeping first occurrences in order.
func dedup(ids []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range ids {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestResetOntoNewTerminalSet verifies that resetting a used state onto
// a different terminal set behaves like constructing with that set.
func TestResetOntoNewTerminalSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := withFreeSource(randomInstance(rng, 12, 5))
	st := NewState(in)
	runGreedy(t, st, KleinRaviOracle)

	alt := Instance{G: in.G, Weights: in.Weights, Terminals: in.Terminals[:3], Free: in.Free[:3]}
	st.Reset(alt.Terminals, alt.Free)
	want := runGreedy(t, NewState(alt), KleinRaviOracle)
	got := runGreedy(t, st, KleinRaviOracle)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reset onto new terminal set diverged")
	}
}
