package wireless

import (
	"math/rand"
	"testing"
)

func TestMulticastHeuristicsFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 12; trial++ {
		nw := randomNet(rng, 9, 2, 1+rng.Float64()*3)
		var R []int
		for _, v := range nw.AllReceivers() {
			if rng.Float64() < 0.6 {
				R = append(R, v)
			}
		}
		if len(R) == 0 {
			R = []int{1}
		}
		opt, _ := ExactMEMT(nw, R)
		for _, h := range MulticastHeuristics {
			tr, a := h.Build(nw, R)
			if !tr.Spans(R) {
				t.Fatalf("trial %d: %s tree does not span %v", trial, h.Name, R)
			}
			if !nw.Feasible(a, R) {
				t.Fatalf("trial %d: %s assignment infeasible", trial, h.Name)
			}
			if a.Total() < opt-1e-9 {
				t.Fatalf("trial %d: %s total %g beats optimum %g", trial, h.Name, a.Total(), opt)
			}
			// Every leaf of the pruned tree must be a receiver.
			ch := tr.Children()
			isR := map[int]bool{}
			for _, r := range R {
				isR[r] = true
			}
			for _, v := range tr.Members() {
				if v != tr.Root && len(ch[v]) == 0 && !isR[v] {
					t.Fatalf("trial %d: %s kept non-receiver leaf %d", trial, h.Name, v)
				}
			}
		}
	}
}

func TestSPTMulticastSingleReceiverIsShortestPath(t *testing.T) {
	// On a line with α = 2, the shortest c-path to the farthest station
	// hops through every intermediate station.
	nw := lineNet(2, 0, 0, 1, 2, 3)
	_, a := SPTMulticast(nw, []int{3})
	if a.Total() != 3 { // three unit hops, each cost 1
		t.Errorf("SPT cost = %g want 3", a.Total())
	}
	opt, _ := ExactMEMT(nw, []int{3})
	if a.Total() != opt {
		t.Errorf("SPT on a chain should be optimal: %g vs %g", a.Total(), opt)
	}
}
