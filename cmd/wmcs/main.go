// Command wmcs generates wireless multicast instances and runs the
// paper's cost-sharing mechanisms on them, printing the receiver set,
// the per-agent cost shares, the solution cost and the axiom checks.
// It can also emit machine-readable JSON (-json) and parallelize the
// evaluation engine (-parallel). The whole simulated-evaluation suite
// is cmd/benchtab.
//
// Every mechanism run goes through the wmcs.Evaluator query engine, so a
// -batch run amortizes the per-network substrates (NWST reduction,
// universal tree, contraction states) across all requested profiles.
//
// Usage:
//
//	wmcs -mech wireless-bb -model euclid -n 10 -d 2 -alpha 2 -seed 1 -umax 50
//	wmcs -mech jv-moat -model clustered -n 12        # any registry scenario
//	wmcs -mech wireless-bb -batch 32 -parallel 8     # batched profile sweep
//	wmcs -list                                       # registry: mechanisms (domain, guarantees) + scenarios
//	wmcs -list -json                                 # machine-readable name lists
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"wmcs"
	"wmcs/internal/cliutil"
	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/stats"
)

func main() {
	var (
		mechName = flag.String("mech", mechreg.Default(), "mechanism name (see -list)")
		model    = flag.String("model", "euclid", "instance model: euclid | any scenario from -list")
		n        = flag.Int("n", 10, "number of stations (station 0 is the source for euclid/symmetric)")
		d        = flag.Int("d", 2, "Euclidean dimension (euclid model only; 0 = 2)")
		alpha    = flag.Float64("alpha", 2, "distance-power gradient α")
		seed     = flag.Int64("seed", 1, "random seed")
		umax     = flag.Float64("umax", 50, "utilities are drawn uniformly from [0, umax)")
		batch    = flag.Int("batch", 1, "profiles to evaluate as one EvaluateBatch query")
		list     = flag.Bool("list", false, "list mechanisms and scenarios, then exit")
		parallel = flag.Int("parallel", 0, "evaluation-engine workers: 1 = serial, 0 = GOMAXPROCS")
		jsonOut  = flag.Bool("json", false, "emit tables as JSON (one object per line)")
	)
	cliutil.Parse()
	if *batch < 1 {
		cliutil.Die("-batch must be >= 1 (got %d)", *batch)
	}
	if *list {
		// The listing is registry-driven: names, domains and guarantees
		// all come from the mechanism descriptor registry, so this
		// output (and the -json form CI diffs against /v1/mechanisms)
		// can never drift from what the evaluator accepts.
		if *jsonOut {
			out := struct {
				Mechanisms []string `json:"mechanisms"`
				Scenarios  []string `json:"scenarios"`
			}{wmcs.MechanismNames(), instances.ScenarioNames()}
			if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Println("mechanisms:")
		for _, d := range mechreg.All() {
			fmt.Printf("  %-18s %-28s %s, %s  [%s]\n",
				d.Name, d.Domain, d.Guarantees.BBLabel(), d.Guarantees.SPLabel(), d.PaperRef)
		}
		fmt.Println("  (*) declared strategyproofness gap — see EXPERIMENTS.md")
		fmt.Println("scenarios (-model):")
		for _, s := range instances.Scenarios() {
			fmt.Printf("  %-10s %s\n", s.Name, s.Desc)
		}
		return
	}
	// Validate names before any work so bad input dies with a usage
	// pointer instead of partial output.
	cliutil.OneOf("-mech", *mechName, wmcs.MechanismNames())
	cliutil.OneOf("-model", *model, append([]string{"euclid"}, instances.ScenarioNames()...))
	width, _ := cliutil.Width("-parallel", *parallel)
	desc, _ := mechreg.ByName(*mechName) // validated by OneOf above
	// The network is built as POST /v1/networks builds it, so the CLI
	// rejects the same n, alpha and dimension.
	nw, err := instances.Spec{Name: *model, Scenario: *model, N: *n, Alpha: *alpha, Seed: *seed, Dim: *d}.Build()
	if err != nil {
		cliutil.Die("%v", err)
	}
	// Profiles draw from a stream of their own: one seeded with -seed
	// itself would repeat the draws that placed the stations.
	rng := engine.RNG(*seed, 0)
	ev := wmcs.NewEvaluator(nw)
	m, err := ev.Mechanism(*mechName)
	if err != nil {
		// The name is valid but the network class isn't (e.g. a line
		// mechanism on a 2-d model).
		cliutil.Die("%v", err)
	}
	drawProfile := func() wmcs.Profile {
		u := make(wmcs.Profile, nw.N())
		for i := range u {
			if i != nw.Source() {
				u[i] = rng.Float64() * *umax
			}
		}
		return u
	}
	if *batch > 1 {
		// Batched mode: draw the profiles serially (so the requests are
		// the same at every -parallel), fan out over the evaluator, and
		// print one summary row per request.
		reqs := make([]wmcs.Request, *batch)
		for i := range reqs {
			reqs[i] = wmcs.Request{Mech: *mechName, Profile: drawProfile()}
		}
		resps := ev.EvaluateBatch(reqs, width)
		tab := stats.NewTable(
			fmt.Sprintf("%s on %s n=%d (seed %d, batch %d)", m.Name(), *model, *n, *seed, *batch),
			"query", "receivers", "cost C(R)", "Σ shares", "net worth")
		for i, r := range resps {
			if r.Err != nil {
				fmt.Fprintln(os.Stderr, r.Err)
				os.Exit(2)
			}
			tab.Add(fmt.Sprint(i), fmt.Sprintf("%d/%d", len(r.Outcome.Receivers), len(m.Agents())),
				stats.F(r.Outcome.Cost), stats.F(r.Outcome.TotalShares()),
				stats.F(r.Outcome.NetWorth(reqs[i].Profile)))
		}
		tab.Note("one network, %d profile queries; substrates built once by the evaluator", *batch)
		if *jsonOut {
			if err := tab.RenderJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		tab.Render(os.Stdout)
		return
	}
	u := drawProfile()
	o := m.Run(u)

	tab := stats.NewTable(
		fmt.Sprintf("%s on %s n=%d (seed %d)", m.Name(), *model, *n, *seed),
		"agent", "utility", "served", "share", "welfare")
	agents := m.Agents()
	sort.Ints(agents)
	for _, a := range agents {
		tab.Add(fmt.Sprint(a), stats.F(u[a]), fmt.Sprint(o.IsReceiver(a)),
			stats.F(o.Share(a)), stats.F(o.Welfare(u, a)))
	}
	tab.Note("receivers: %d/%d   solution cost C(R): %s   Σ shares: %s   net worth: %s",
		len(o.Receivers), len(agents), stats.F(o.Cost), stats.F(o.TotalShares()), stats.F(o.NetWorth(u)))
	if len(o.Receivers) > 0 && nw.N() <= 14 {
		opt := wmcs.OptimalCost(nw, o.Receivers)
		ratio := 0.0
		if opt > 0 {
			ratio = o.TotalShares() / opt
		}
		tab.Note("optimal cost C*(R): %s   budget-balance ratio Σc/C*: %s", stats.F(opt), stats.F(ratio))
	}
	// Check only what the descriptor declares: the marginal-cost
	// mechanisms run a deficit by design.
	g := desc.Guarantees
	if err := g.CheckOutcome(u, o); err != nil {
		tab.Note("axiom check: %v", err)
	} else {
		var held []string
		if g.NPT {
			held = append(held, "NPT ✓")
		}
		if g.VP {
			held = append(held, "VP ✓")
		}
		if g.BB != mechreg.BBNone {
			held = append(held, "cost recovery ✓")
		}
		tab.Note("axiom check: %s", strings.Join(held, "  "))
	}
	if *jsonOut {
		if err := tab.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	tab.Render(os.Stdout)
}
