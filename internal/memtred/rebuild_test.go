package memtred

import (
	"math/rand"
	"reflect"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/mech"
	"wmcs/internal/nwst"
	"wmcs/internal/nwstmech"
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

func TestRebuildMatchesNew(t *testing.T) {
	for _, n := range []int{5, 9, 16} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		nw := randSym(n, int64(n))
		prev := New(nw)
		for trial := 0; trial < 40; trial++ {
			work := nw.Snapshot()
			// 1–3 random single-edge rewrites per update.
			for k := 0; k < 1+rng.Intn(3); k++ {
				i := rng.Intn(n)
				j := rng.Intn(n)
				for j == i {
					j = rng.Intn(n)
				}
				if _, err := work.SetCost(i, j, 0.5+rng.Float64()*9.5); err != nil {
					t.Fatal(err)
				}
			}
			d := work.TakeDelta()
			got := Rebuild(prev, work, d.DirtyRows)
			want := New(work)
			if got == nil {
				// Eligibility bailed (distinct-cost count changed) —
				// legal, the caller falls back to New.
				continue
			}
			requireSame(t, got, want)
			// Chain: the rebuilt reduction must itself be a valid donor.
			nw, prev = work, got
		}
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

// TestChainsLazy pins when a reduction derives its chain description
// for the node-weighted sweep: not in New or Rebuild, not when an
// instance, the NWST mechanism or a state pool is built over it — all of
// which the PATCH warm does — but when the first State is built, once,
// after which every State shares it.
func TestChainsLazy(t *testing.T) {
	nw := randSym(7, 3)
	prev := New(nw)
	work := nw.Snapshot()
	if _, err := work.SetCost(1, 2, work.C(1, 2)*1.1); err != nil {
		t.Fatal(err)
	}
	rb := Rebuild(prev, work, work.TakeDelta().DirtyRows)
	if rb == nil {
		t.Fatal("Rebuild fell back to New")
	}
	for name, rd := range map[string]*Reduction{"new": prev, "rebuild": rb} {
		in := rd.Instance(rd.Net.AllReceivers())
		nwstmech.NewMemoized(in, nil)
		nwst.NewStatePool(in)
		if rd.chains != nil {
			t.Fatalf("%s: described before any State was built", name)
		}
		nwst.NewState(in)
		c := rd.chains
		if c == nil {
			t.Fatalf("%s: a State was built without describing the reduction", name)
		}
		nwst.NewState(rd.Instance([]int{1, 2}))
		nwstmech.New(in, nil).Run(make(mech.Profile, rd.G.N()))
		if rd.chains != c || rd.Chains() != c {
			t.Fatalf("%s: the reduction was described twice", name)
		}
	}
}
