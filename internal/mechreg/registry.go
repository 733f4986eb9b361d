package mechreg

// This file is the descriptor registry proper: the ONE non-test file in
// the repository that spells the public mechanism names. Everything
// else — the query engine, the serving layer, the experiment sweeps,
// the CLIs, the façade, the docs table — derives its name lists, domain
// checks and guarantee statements from here. To add a mechanism family
// (e.g. a min-cost coded-multicast variant in the spirit of Lun et
// al.), append one Descriptor; every layer picks it up.

import (
	"math"

	"wmcs/internal/euclid1"
	"wmcs/internal/jv"
	"wmcs/internal/mech"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
	"wmcs/internal/wmech"
)

// The registry names, exported so other layers can refer to a specific
// mechanism (CLI defaults, examples, tests) without respelling the
// string.
const (
	UniversalShapley = "universal-shapley"
	UniversalMC      = "universal-mc"
	WirelessBB       = "wireless-bb"
	Alpha1Shapley    = "alpha1-shapley"
	Alpha1MC         = "alpha1-mc"
	LineShapley      = "line-shapley"
	LineMC           = "line-mc"
	JVMoat           = "jv-moat"
)

// Domain predicates. A nil Supports means "every symmetric network";
// the two non-trivial domains are the Lemma 3.1 polynomial cases.

// supportsAlpha1 admits Euclidean networks with gradient α = 1.
func supportsAlpha1(name string) func(nw *wireless.Network) error {
	return func(nw *wireless.Network) error {
		if !nw.IsEuclidean() || nw.PowerModel().Alpha != 1 {
			return unsupported("%s requires a Euclidean network with alpha = 1", name)
		}
		return nil
	}
}

// supportsLine admits 1-dimensional networks.
func supportsLine(name string) func(nw *wireless.Network) error {
	return func(nw *wireless.Network) error {
		if nw.Dim() != 1 {
			return unsupported("%s requires a 1-dimensional network", name)
		}
		return nil
	}
}

// betaOne is the exact-budget-balance factor of the Theorem 3.2
// mechanisms.
func betaOne(*wireless.Network, int) float64 { return 1 }

// registry lists the paper's mechanism family in presentation order.
var registry = []Descriptor{
	{
		Name:     UniversalShapley,
		Family:   "universal-tree",
		Domain:   "general symmetric",
		PaperRef: "§2.1",
		Desc:     "Shapley value on a fixed universal broadcast tree (Moulin–Shenker)",
		Approx:   true,
		Guarantees: Guarantees{
			BB:                BBSolution,
			BetaLabel:         "1",
			Strategyproofness: GSP,
			NPT:               true, VP: true, CS: true,
		},
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return universal.ShapleyMechanism(ctx.SPT()), nil
		},
	},
	{
		Name:     UniversalMC,
		Family:   "universal-tree",
		Domain:   "general symmetric",
		PaperRef: "§2.1",
		Desc:     "marginal-cost (VCG) mechanism on the universal tree",
		Guarantees: Guarantees{
			BB:                BBNone,
			Strategyproofness: SP,
			NPT:               true, VP: true, CS: true,
			Efficient: true,
		},
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return universal.MCMechanism(ctx.SPT()), nil
		},
	},
	{
		Name:     WirelessBB,
		Family:   "nwst-reduction",
		Domain:   "general symmetric",
		PaperRef: "§2.2.3 (Thm 2.2/2.3)",
		Desc:     "MEMT→NWST reduction with the spider-contraction mechanism",
		Guarantees: Guarantees{
			BB:                BBOptimum,
			Beta:              func(_ *wireless.Network, k int) float64 { return wmech.BetaBound(k) },
			BetaLabel:         "3·ln(k+1)",
			Strategyproofness: SP,
			// Theorem 2.3's SP proof has a documented gap: an agent can
			// over-report to outlive a multi-drop restart (finding F3,
			// EXPERIMENTS.md) — sampled violations are the known gap,
			// not an implementation bug.
			SPGap: "F3",
			NPT:   true, VP: true, CS: true,
		},
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return wmech.NewFromReduction(ctx.Reduction(), ctx.oracle()), nil
		},
	},
	{
		Name:     Alpha1Shapley,
		Family:   "euclid-alpha1",
		Domain:   "Euclidean, α = 1",
		PaperRef: "Thm 3.2 (α = 1)",
		Desc:     "airport-game Shapley mechanism (closed form)",
		Approx:   true,
		Guarantees: Guarantees{
			BB:                BBOptimum,
			Beta:              betaOne,
			BetaLabel:         "1",
			Strategyproofness: GSP,
			NPT:               true, VP: true, CS: true,
		},
		Supports: supportsAlpha1(Alpha1Shapley),
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return euclid1.NewAirportGame(ctx.Net).ShapleyMechanism(), nil
		},
	},
	{
		Name:     Alpha1MC,
		Family:   "euclid-alpha1",
		Domain:   "Euclidean, α = 1",
		PaperRef: "Thm 3.2 (α = 1)",
		Desc:     "airport-game marginal-cost mechanism (distance prefixes)",
		Guarantees: Guarantees{
			BB:                BBNone,
			Strategyproofness: SP,
			NPT:               true, VP: true, CS: true,
			Efficient: true,
		},
		Supports: supportsAlpha1(Alpha1MC),
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return euclid1.NewAirportGame(ctx.Net).MCMechanism(), nil
		},
	},
	{
		Name:     LineShapley,
		Family:   "euclid-line",
		Domain:   "d = 1 (stations on a line)",
		PaperRef: "Thm 3.2 (d = 1)",
		Desc:     "interval-game Shapley mechanism over exact interval optima",
		Approx:   true,
		Guarantees: Guarantees{
			BB:                BBOptimum,
			Beta:              betaOne,
			BetaLabel:         "1",
			Strategyproofness: GSP,
			NPT:               true, VP: true, CS: true,
		},
		Supports: supportsLine(LineShapley),
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return euclid1.NewLineGame(ctx.Net).ShapleyMechanism(), nil
		},
	},
	{
		Name:     LineMC,
		Family:   "euclid-line",
		Domain:   "d = 1 (stations on a line)",
		PaperRef: "Thm 3.2 (d = 1)",
		Desc:     "interval-game marginal-cost mechanism",
		Guarantees: Guarantees{
			BB:                BBNone,
			Strategyproofness: SP,
			NPT:               true, VP: true, CS: true,
			Efficient: true,
		},
		Supports: supportsLine(LineMC),
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return euclid1.NewLineGame(ctx.Net).MCMechanism(), nil
		},
	},
	{
		Name:     JVMoat,
		Family:   "moat",
		Domain:   "general symmetric (β declared for Euclidean)",
		PaperRef: "Thms 3.6/3.7",
		Desc:     "Jain–Vazirani moat-growing mechanism (uniform weights)",
		Guarantees: Guarantees{
			BB: BBOptimum,
			// 2(3^d − 1)-BB — 12 in the plane, 4 on a line. The theorem
			// is Euclidean: on abstract symmetric networks the mechanism
			// runs (and still recovers its cost) but declares no factor.
			Beta: func(nw *wireless.Network, _ int) float64 {
				if !nw.IsEuclidean() {
					return 0
				}
				return 2 * (math.Pow(3, float64(nw.Dim())) - 1)
			},
			BetaLabel:         "2(3^d−1)",
			Strategyproofness: GSP,
			NPT:               true, VP: true, CS: true,
		},
		Build: func(ctx *BuildContext) (mech.Mechanism, error) {
			return jv.NewMechanism(ctx.Net, nil), nil
		},
	},
}
