// Quickstart: build a small Euclidean wireless network, stand up the
// reusable query engine (wmcs.Evaluator), run the budget-balanced
// universal-tree Shapley mechanism on reported utilities, and inspect
// who gets served and at what price — then reuse the same evaluator for
// a batched what-if sweep.
package main

import (
	"fmt"

	"wmcs"
)

func main() {
	// Nine stations in the plane; station 0 is the multicast source.
	points := [][]float64{
		{5, 5},         // 0: source
		{4, 6}, {6, 6}, // nearby receivers
		{2, 8}, {8, 8}, // mid-range
		{1, 1}, {9, 1}, // far corners
		{5, 9}, {5, 0.5}, // edge stations
	}
	nw := wmcs.NewEuclideanNetwork(points, 2, 0) // power cost = dist²

	// One evaluator per network: it caches every per-network substrate
	// (universal tree, NWST reduction, mechanism instances) so repeated
	// queries only pay for the query itself.
	ev := wmcs.NewEvaluator(nw)

	// Reported utilities: the maximum power cost each agent is willing
	// to bear to receive the stream.
	u := wmcs.Profile{0, 8, 8, 15, 15, 3, 30, 12, 25}

	o, err := ev.Evaluate(wmcs.MechUniversalShapley, nil, u)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mechanism: %s\n", wmcs.MechUniversalShapley)
	fmt.Printf("receivers: %v\n", o.Receivers)
	for _, a := range o.Receivers {
		fmt.Printf("  station %d: utility %.2f, pays %.3f, welfare %.3f\n",
			a, u[a], o.Share(a), o.Welfare(u, a))
	}
	fmt.Printf("solution cost: %.3f, collected: %.3f (budget balanced)\n",
		o.Cost, o.TotalShares())
	// Verify checks the axioms the mechanism's descriptor declares.
	info, err := wmcs.Describe(wmcs.MechUniversalShapley)
	if err != nil {
		panic(err)
	}
	if err := wmcs.Verify(info, u, o); err != nil {
		fmt.Println("axiom violation:", err)
	} else {
		fmt.Println("axioms: NPT, VP, cost recovery all hold")
	}

	// Batched what-if queries against the same network: restrict the
	// candidate receiver set R and compare mechanisms. The evaluator
	// reuses every cached substrate; responses come back in request
	// order and are byte-identical at any worker count.
	reqs := []wmcs.Request{
		{Mech: wmcs.MechUniversalShapley, R: []int{1, 2, 7}, Profile: u},
		{Mech: wmcs.MechWirelessBB, Profile: u},
		{Mech: wmcs.MechJVMoat, Profile: u},
	}
	fmt.Println("\nbatched what-ifs on the same evaluator:")
	for i, r := range ev.EvaluateBatch(reqs, 0) {
		if r.Err != nil {
			panic(r.Err)
		}
		fmt.Printf("  %-18s served %d stations, cost %.3f, collects %.3f\n",
			reqs[i].Mech, len(r.Outcome.Receivers), r.Outcome.Cost, r.Outcome.TotalShares())
	}
}
