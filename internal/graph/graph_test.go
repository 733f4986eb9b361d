package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 0.5)
	g.AddEdge(2, 3, 2)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges len = %d", len(es))
	}
	// Sorted by weight.
	if es[0].W != 0.5 || es[1].W != 1.5 || es[2].W != 2 {
		t.Errorf("Edges not sorted: %v", es)
	}
	for _, e := range es {
		if e.From >= e.To {
			t.Errorf("edge not normalized: %v", e)
		}
	}
	v := g.AddVertex()
	if v != 4 || g.N() != 5 {
		t.Errorf("AddVertex = %d, N = %d", v, g.N())
	}
}

func TestGraphSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestGraphClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	if m.At(1, 0) != 5 || m.At(0, 1) != 5 {
		t.Error("Set must be symmetric")
	}
	m.SetAsym(2, 0, 9)
	if m.At(2, 0) != 9 || m.At(0, 2) != 0 {
		t.Error("SetAsym must be one-sided")
	}
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.At(0, 1) != 5 {
		t.Error("Clone aliases")
	}
	g := m.Complete()
	if g.N() != 3 || g.M() != 3 {
		t.Errorf("Complete: N=%d M=%d", g.N(), g.M())
	}
}

func TestMatrixFromValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatrixFrom(2, []float64{1, 2, 3})
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(0, 2) {
		t.Fatal("unions should succeed")
	}
	if uf.Union(1, 3) {
		t.Error("redundant union should report false")
	}
	if !uf.Same(1, 3) || uf.Same(0, 4) {
		t.Error("Same is wrong")
	}
	if uf.Sets() != 3 {
		t.Errorf("Sets = %d", uf.Sets())
	}
}

// Property: after an arbitrary sequence of unions, Same agrees with a naive
// label-propagation implementation.
func TestUnionFindMatchesNaive(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 24
		uf := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for _, op := range ops {
			a := int(op) % n
			b := int(op>>8) % n
			if a == b {
				continue
			}
			uf.Union(a, b)
			relabel(label[a], label[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		// Set count matches distinct labels.
		distinct := map[int]bool{}
		for _, l := range label {
			distinct[l] = true
		}
		return uf.Sets() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIndexHeapOrdering(t *testing.T) {
	h := NewIndexHeap(10)
	prios := []float64{5, 3, 8, 1, 9, 2, 7, 0, 6, 4}
	for k, p := range prios {
		h.Push(k, p)
	}
	var got []float64
	for h.Len() > 0 {
		_, p := h.Pop()
		got = append(got, p)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("pops not sorted: %v", got)
	}
}

func TestIndexHeapDecreaseKey(t *testing.T) {
	h := NewIndexHeap(3)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	h.DecreaseKey(1, 25) // ignored: not a decrease
	k, p := h.Pop()
	if k != 2 || p != 5 {
		t.Errorf("Pop = (%d, %g), want (2, 5)", k, p)
	}
	if h.Priority(1) != 20 {
		t.Errorf("priority of 1 changed to %g", h.Priority(1))
	}
	h.PushOrDecrease(2, 1) // reinsert popped key
	k, _ = h.Pop()
	if k != 2 {
		t.Errorf("PushOrDecrease reinsert failed, popped %d", k)
	}
}

func TestIndexHeapPanics(t *testing.T) {
	h := NewIndexHeap(2)
	h.Push(0, 1)
	func() {
		defer func() { recover() }()
		h.Push(0, 2)
		t.Error("double Push should panic")
	}()
	h.Pop()
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty should panic")
		}
	}()
	h.Pop()
}

// Property: heap pops match sorting, including after random DecreaseKeys.
func TestIndexHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		h := NewIndexHeap(n)
		prio := make([]float64, n)
		for k := 0; k < n; k++ {
			prio[k] = rng.Float64() * 100
			h.Push(k, prio[k])
		}
		for d := 0; d < n/2; d++ {
			k := rng.Intn(n)
			p := rng.Float64() * 100
			if p < prio[k] {
				prio[k] = p
			}
			h.DecreaseKey(k, p)
		}
		want := append([]float64(nil), prio...)
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			k, p := h.Pop()
			if p != want[i] {
				t.Fatalf("trial %d: pop %d = %g want %g", trial, i, p, want[i])
			}
			if prio[k] != p {
				t.Fatalf("trial %d: priority table inconsistent", trial)
			}
			if h.Contains(k) {
				t.Fatalf("popped key still contained")
			}
		}
	}
}
