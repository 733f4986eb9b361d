package memtred

import (
	"math/rand"
	"reflect"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/wireless"
)

func randSym(n int, seed int64) *wireless.Network {
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 0.5+rng.Float64()*9.5)
		}
	}
	return wireless.NewSymmetric(m, 0)
}

// requireSame pins structural identity between a rebuilt reduction and a
// from-scratch one: node ids, weights, station map and every adjacency
// list in order. This is the byte-safety argument for the whole
// incremental update path — downstream consumers are deterministic
// functions of this structure.
func requireSame(t *testing.T, got, want *Reduction) {
	t.Helper()
	if !reflect.DeepEqual(got.Weights, want.Weights) {
		t.Fatalf("weights diverge\ngot:  %v\nwant: %v", got.Weights, want.Weights)
	}
	if !reflect.DeepEqual(got.In, want.In) || !reflect.DeepEqual(got.OutNodes, want.OutNodes) {
		t.Fatal("node id layout diverges")
	}
	if !reflect.DeepEqual(got.station, want.station) {
		t.Fatal("station map diverges")
	}
	if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
		t.Fatalf("graph size %d/%d vs %d/%d", got.G.N(), got.G.M(), want.G.N(), want.G.M())
	}
	for v := 0; v < want.G.N(); v++ {
		g, w := got.G.Neighbors(v), want.G.Neighbors(v)
		if len(g) != len(w) {
			t.Fatalf("node %d: degree %d vs %d", v, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("node %d edge %d: %+v vs %+v", v, i, g[i], w[i])
			}
		}
	}
}

// TestRebuildMatchesNew chains random rewrites through Rebuild and
// requires each incremental result to be New's. Its inputs are random
// symmetric networks rewritten with continuous costs, and the tie-heavy
// networks of tiedSyms rewritten with costs from their own set {1..k}:
// there a rewrite can merge or split a level (Rebuild bails) or move a
// threshold onto another existing level, and both paths must occur.
func TestRebuildMatchesNew(t *testing.T) {
	type input struct {
		nw     *wireless.Network
		seed   int64
		trials int
		cost   func(*rand.Rand) float64
	}
	var ins []input
	for _, n := range []int{5, 9, 16} {
		ins = append(ins, input{randSym(n, int64(n)), int64(100 + n), 40, func(rng *rand.Rand) float64 { return 0.5 + rng.Float64()*9.5 }})
	}
	for x, tn := range tiedSyms(t, 12) {
		ins = append(ins, input{tn.nw, int64(x), 8, func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(tn.k)) }})
	}
	kept, bailed := 0, 0
	for _, in := range ins {
		rng := rand.New(rand.NewSource(in.seed))
		nw := in.nw
		var on []int
		for i := 0; i < nw.N(); i++ {
			if nw.StationEnabled(i) {
				on = append(on, i)
			}
		}
		if len(on) < 2 {
			continue
		}
		prev := New(nw)
		for trial := 0; trial < in.trials; trial++ {
			work := nw.Snapshot()
			// 1–3 random single-edge rewrites per update.
			for k := 0; k < 1+rng.Intn(3); k++ {
				i := on[rng.Intn(len(on))]
				j := on[rng.Intn(len(on))]
				for j == i {
					j = on[rng.Intn(len(on))]
				}
				if _, err := work.SetCost(i, j, in.cost(rng)); err != nil {
					t.Fatal(err)
				}
			}
			d := work.TakeDelta()
			got := Rebuild(prev, work, d.DirtyRows)
			if got == nil {
				// Eligibility bailed (distinct-cost count changed, or
				// nothing or everything dirty) — legal, the caller falls
				// back to New.
				bailed++
				continue
			}
			kept++
			requireSame(t, got, New(work))
			// Chain: the rebuilt reduction must itself be a valid donor.
			nw, prev = work, got
		}
	}
	if kept == 0 || bailed == 0 {
		t.Fatalf("%d incremental rebuilds and %d fallbacks; the inputs must take both paths", kept, bailed)
	}
}

// TestRebuildLevelCollapseBailsOut forces a distinct-cost count change
// (two row costs collapsing onto one value) and requires Rebuild to
// refuse rather than produce a shifted id layout.
func TestRebuildLevelCollapseBailsOut(t *testing.T) {
	nw := randSym(6, 3)
	prev := New(nw)
	work := nw.Snapshot()
	if _, err := work.SetCost(1, 2, work.C(1, 3)); err != nil {
		t.Fatal(err)
	}
	d := work.TakeDelta()
	if got := Rebuild(prev, work, d.DirtyRows); got != nil {
		t.Fatal("Rebuild accepted a level collapse; want nil (fall back to New)")
	}
}

// TestRebuildRejectsDegenerateDirtySets pins the contract edges: no
// dirty rows and all-dirty both return nil.
func TestRebuildRejectsDegenerateDirtySets(t *testing.T) {
	nw := randSym(5, 4)
	prev := New(nw)
	if Rebuild(prev, nw, make([]bool, 5)) != nil {
		t.Fatal("Rebuild accepted an empty dirty set")
	}
	all := []bool{true, true, true, true, true}
	if Rebuild(prev, nw, all) != nil {
		t.Fatal("Rebuild accepted an all-dirty set")
	}
	if Rebuild(nil, nw, all) != nil {
		t.Fatal("Rebuild accepted a nil donor")
	}
}
