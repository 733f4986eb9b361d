package memtred

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wmcs/internal/graph"
	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/nwst"
	"wmcs/internal/nwstmech"
	"wmcs/internal/paths"
	"wmcs/internal/steiner"
	"wmcs/internal/wireless"
)

// refExtract is Extract with its order taken by a second BFS, kept as
// the reference: the pruned edges are built into a graph of their own,
// a BFS from the source's input node numbers its nodes, and each edge is
// oriented from the lower number to the higher.
func refExtract(rd *Reduction, nodes, R []int) Extraction {
	src := rd.Net.Source()
	terms := []int{rd.In[src]}
	for _, r := range R {
		terms = append(terms, rd.In[r])
	}
	edges := steiner.Prune(rd.G.N(), nwst.SpanningTree(rd.G, nodes, rd.In[src]), terms)
	sub := graph.New(rd.G.N())
	for _, e := range edges {
		sub.AddEdge(e.From, e.To, 0)
	}
	_, _, order := paths.BFS(sub, rd.In[src])
	num := make([]int, rd.G.N())
	for i, v := range order {
		num[v] = i
	}
	n := rd.Net.N()
	ex := Extraction{Pi: make(wireless.Assignment, n), PiNWST: make(wireless.Assignment, n)}
	seen := make([]bool, n)
	for _, v := range order {
		st := rd.station[v]
		if !seen[st] {
			seen[st] = true
			ex.Order = append(ex.Order, st)
		}
		if w := rd.Weights[v]; w > ex.PiNWST[st] {
			ex.PiNWST[st] = w
		}
	}
	for _, e := range edges {
		u, v := e.From, e.To
		if num[u] > num[v] {
			u, v = v, u
		}
		a, b := rd.station[u], rd.station[v]
		if a == b {
			continue
		}
		c := rd.Net.C(a, b)
		ex.Arcs = append(ex.Arcs, graph.Edge{From: a, To: b, W: c})
		if c > ex.Pi[a] {
			ex.Pi[a] = c
		}
	}
	sort.Slice(ex.Arcs, func(i, j int) bool {
		if ex.Arcs[i].From != ex.Arcs[j].From {
			return ex.Arcs[i].From < ex.Arcs[j].From
		}
		return ex.Arcs[i].To < ex.Arcs[j].To
	})
	return ex
}

// sameExtraction reports bitwise equality of two extractions.
func sameExtraction(a, b Extraction) bool {
	sameFloats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return slices.Equal(a.Order, b.Order) && sameFloats(a.Pi, b.Pi) && sameFloats(a.PiNWST, b.PiNWST) &&
		slices.EqualFunc(a.Arcs, b.Arcs, func(p, q graph.Edge) bool {
			return p.From == q.From && p.To == q.To && math.Float64bits(p.W) == math.Float64bits(q.W)
		})
}

// TestExtractMatchesTwoBFS pins Extract, which reads the pruned tree's
// BFS order off the spanning tree, to refExtract on the node sets that
// the NWST mechanism's successful passes choose. Each network's
// mechanism runs random profiles up to the network's largest power, so
// some passes drop receivers who cannot pay; its finish step checks
// every pass whose spiders were all affordable and then drops one random
// served receiver, so the sets shrink down to one receiver.
func TestExtractMatchesTwoBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var nets []*wireless.Network
	for si, sc := range instances.Scenarios() {
		for _, n := range []int{8, 12} {
			nw, err := instances.Spec{Scenario: sc.Name, N: n, Alpha: 2, Seed: int64(100*si + n)}.Build()
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, nw)
		}
	}
	nets = append(nets, tiedSym(t, rng, 12, 2, false))
	checked := 0
	for ni, nw := range nets {
		rd := New(nw)
		m := nwstmech.New(rd.Instance(nw.AllReceivers()), nil)
		for p := 0; p < 4; p++ {
			u := mech.RandomProfile(rng, rd.G.N(), slices.Max(rd.Weights))
			m.DropLoop(u, func(res nwstmech.Result) []int {
				served := make([]int, len(res.Outcome.Receivers))
				for i, v := range res.Outcome.Receivers {
					served[i] = rd.Station(v)
				}
				slices.Sort(served)
				got, want := rd.Extract(res.Nodes, served), refExtract(rd, res.Nodes, served)
				if !sameExtraction(got, want) {
					t.Fatalf("network %d profile %d, R = %v: Extract diverges from the two-BFS reference\ngot:  %+v\nwant: %+v",
						ni, p, served, got, want)
				}
				checked++
				if len(served) <= 1 {
					return nil
				}
				return []int{res.Outcome.Receivers[rng.Intn(len(served))]}
			})
		}
	}
	if want := 2 * len(nets) * 4; checked < want {
		t.Fatalf("only %d extractions checked, want at least %d", checked, want)
	}
}
