// Package wmcs is the public façade of the reproduction of Bilò,
// Flammini, Melideo, Moscardelli, Navarra: "Sharing the cost of multicast
// transmissions in wireless networks" (SPAA 2004 / TCS 369 (2006)).
//
// It exposes the wireless network model, every cost-sharing mechanism the
// paper constructs, and the axiom checkers of the simulated evaluation:
//
//   - UniversalShapley / UniversalMC — §2.1 mechanisms on a fixed
//     universal broadcast tree (budget balanced group-strategyproof vs
//     efficient strategyproof);
//   - WirelessBudgetBalanced — the §2.2.3 3·ln(k+1)-BB mechanism for
//     general symmetric networks via the NWST reduction;
//   - Alpha1Shapley / Alpha1MC and LineShapley / LineMC — the optimal
//     Euclidean mechanisms of Theorem 3.2 (α = 1 or d = 1);
//   - Moat — the Theorem 3.6/3.7 Jain–Vazirani family, 2(3^d−1)-BB
//     (12-BB at d = 2) and group strategyproof.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the measured
// reproduction of every theorem and figure.
package wmcs

import (
	"fmt"

	"wmcs/internal/geom"
	"wmcs/internal/graph"
	"wmcs/internal/instances"
	"wmcs/internal/jv"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// Network is a symmetric wireless network (see internal/wireless).
type Network = wireless.Network

// Assignment is a power assignment over the stations.
type Assignment = wireless.Assignment

// Profile is a reported utility profile indexed by station id.
type Profile = mech.Profile

// Outcome is a mechanism outcome: receivers, shares and solution cost.
type Outcome = mech.Outcome

// Mechanism is a cost-sharing mechanism.
type Mechanism = mech.Mechanism

// NewEuclideanNetwork builds a network from d-dimensional station
// coordinates with power cost dist^alpha and the given source station.
func NewEuclideanNetwork(points [][]float64, alpha float64, source int) *Network {
	pts := make([]geom.Point, len(points))
	for i, p := range points {
		pts[i] = geom.Point(p)
	}
	return wireless.NewEuclidean(pts, geom.NewPowerCost(alpha), source)
}

// NewSymmetricNetwork builds an abstract symmetric network from a cost
// matrix given as rows (costs[i][j] must equal costs[j][i]). It rejects
// an empty or ragged matrix, a source outside [0, n), and any cost
// outside [0, wireless.DisabledCost), the range instances.Spec.Build
// accepts.
func NewSymmetricNetwork(costs [][]float64, source int) (*Network, error) {
	n := len(costs)
	if n == 0 {
		return nil, fmt.Errorf("wmcs: empty cost matrix")
	}
	if source < 0 || source >= n {
		return nil, fmt.Errorf("wmcs: source %d outside [0, %d)", source, n)
	}
	for i, row := range costs {
		if len(row) != n {
			return nil, fmt.Errorf("wmcs: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, c := range row {
			if j != i && !(c >= 0 && c < wireless.DisabledCost) {
				return nil, fmt.Errorf("wmcs: cost at (%d,%d) = %g, outside [0, %g)", i, j, c, wireless.DisabledCost)
			}
		}
	}
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if costs[i][j] != costs[j][i] {
				return nil, fmt.Errorf("wmcs: asymmetric cost at (%d,%d)", i, j)
			}
			m.Set(i, j, costs[i][j])
		}
	}
	return wireless.NewSymmetric(m, source), nil
}

// The registry mechanism names, re-exported so callers can name a
// mechanism (Evaluate, EvaluateBatch, ByName) without spelling the
// string: the descriptor registry (internal/mechreg, DESIGN.md §9) is
// the single source of truth for names, domains and guarantees.
const (
	MechUniversalShapley = mechreg.UniversalShapley
	MechUniversalMC      = mechreg.UniversalMC
	MechWirelessBB       = mechreg.WirelessBB
	MechAlpha1Shapley    = mechreg.Alpha1Shapley
	MechAlpha1MC         = mechreg.Alpha1MC
	MechLineShapley      = mechreg.LineShapley
	MechLineMC           = mechreg.LineMC
	MechJVMoat           = mechreg.JVMoat
)

// ErrUnknownMechanism and ErrUnsupportedDomain are the registry's typed
// lookup errors: every name-resolution failure out of ByName or an
// Evaluator wraps one of them — branch with errors.Is.
var (
	ErrUnknownMechanism  = mechreg.ErrUnknownMechanism
	ErrUnsupportedDomain = mechreg.ErrUnsupportedDomain
)

// MechanismInfo describes one registry mechanism: name, family, domain,
// paper anchor, and the declared guarantees the conformance suite
// verifies. See Mechanisms.
type MechanismInfo = mechreg.Descriptor

// Mechanisms returns the descriptor registry in presentation order —
// the machine-readable form of the README's mechanism table. The slice
// is the caller's to keep: mutating it cannot corrupt the registry.
func Mechanisms() []MechanismInfo {
	return append([]MechanismInfo(nil), mechreg.All()...)
}

// mustBuild constructs a registry mechanism for nw, panicking on a
// domain mismatch — the behavior the one-shot constructors have always
// had (euclid1's constructors panicked on the wrong network class).
func mustBuild(name string, nw *Network) Mechanism {
	m, err := mechreg.Build(name, mechreg.NewBuildContext(nw))
	if err != nil {
		panic(err)
	}
	return m
}

// UniversalShapley returns the §2.1 budget-balanced group-strategyproof
// Shapley mechanism on a shortest-path universal tree.
func UniversalShapley(nw *Network) Mechanism {
	return mustBuild(MechUniversalShapley, nw)
}

// UniversalMC returns the §2.1 efficient strategyproof marginal-cost
// mechanism on a shortest-path universal tree.
func UniversalMC(nw *Network) Mechanism {
	return mustBuild(MechUniversalMC, nw)
}

// WirelessBudgetBalanced returns the §2.2.3 mechanism: 3·ln(k+1)-BB,
// strategyproof, NPT/VP/CS, for arbitrary symmetric networks.
func WirelessBudgetBalanced(nw *Network) Mechanism {
	return mustBuild(MechWirelessBB, nw)
}

// Alpha1Shapley returns the Theorem 3.2 optimally budget-balanced
// mechanism for Euclidean networks with α = 1.
func Alpha1Shapley(nw *Network) Mechanism {
	return mustBuild(MechAlpha1Shapley, nw)
}

// Alpha1MC returns the Theorem 3.2 efficient mechanism for α = 1.
func Alpha1MC(nw *Network) Mechanism {
	return mustBuild(MechAlpha1MC, nw)
}

// LineShapley returns the Theorem 3.2 optimally budget-balanced mechanism
// for 1-dimensional networks.
func LineShapley(nw *Network) Mechanism {
	return mustBuild(MechLineShapley, nw)
}

// LineMC returns the Theorem 3.2 efficient mechanism for d = 1.
func LineMC(nw *Network) Mechanism {
	return mustBuild(MechLineMC, nw)
}

// Moat returns the Theorem 3.6/3.7 Jain–Vazirani moat mechanism
// (2(3^d−1)-BB, group strategyproof); weights parameterize the family.
// nil weights select the uniform member — the registry's jv-moat — and
// custom weights a non-registry family member (reported under the
// package-internal "moat" name). The family needs a finite weight
// f_i > 0 for every receiver: Moat calls weights for each one and
// panics, naming the agent and its weight, on a zero, negative, NaN or
// infinite weight, as it panics on a network outside jv-moat's domain.
func Moat(nw *Network, weights func(agent int) float64) Mechanism {
	if weights == nil {
		return mustBuild(MechJVMoat, nw)
	}
	return jv.NewMechanism(nw, weights)
}

// Evaluator is the reusable query engine over one fixed network: it
// caches the per-network substrates (NWST reduction, universal tree,
// interval tables, one mechanism instance per name) and serves any number
// of Evaluate/EvaluateBatch queries against them. Build one per network
// with NewEvaluator; see internal/query and DESIGN.md §7.
type Evaluator = query.Evaluator

// Request is one EvaluateBatch query: mechanism name, candidate receiver
// set (nil = all stations) and reported profile.
type Request = query.Request

// Response is the outcome of one batched query.
type Response = query.Response

// NewEvaluator builds the query engine for a network. All per-network
// construction happens lazily on the first query that needs it, so this
// is cheap; repeated queries then amortize it.
func NewEvaluator(nw *Network) *Evaluator { return query.NewEvaluator(nw) }

// MechanismNames lists the names accepted by ByName and the Evaluator,
// in registry order.
func MechanismNames() []string { return mechreg.Names() }

// SupportedMechanisms lists, in registry order, the mechanism names
// whose declared domain admits nw — the names Evaluate will accept
// rather than reject with ErrUnsupportedDomain.
func SupportedMechanisms(nw *Network) []string { return mechreg.SupportedNames(nw) }

// ByName constructs a fresh mechanism by its registry name, validating
// the network against the mechanism's requirements. For repeated queries
// prefer NewEvaluator, which caches the mechanism and its substrates.
func ByName(name string, nw *Network) (Mechanism, error) {
	return query.NewEvaluator(nw).Mechanism(name)
}

// Spec names one network drawn from the scenario registry (family,
// size, gradient, seed); it is the unit of manifest-driven construction
// for the serving layer. Building the same Spec always yields the same
// network.
type Spec = instances.Spec

// NetworkUpdate is one atomic network delta — the wire form of the
// serving layer's PATCH /v1/networks/{name} and the unit the churn
// models emit. Networks themselves carry the underlying mutation ops
// (SetCost, MoveStation, SetStationEnabled, Snapshot, Version), since
// Network aliases the wireless type; see DESIGN.md §10 for the
// lifecycle contract.
type NetworkUpdate = instances.Update

// CostSet and MoveOp are NetworkUpdate's op types: a symmetric cost
// assignment and a station relocation.
type (
	CostSet = instances.CostSet
	MoveOp  = instances.MoveOp
)

// VersionedEvaluator is the live-network face of the query engine: a
// lock-free Current() view for queries plus an Update method that
// applies a mutation atomically and swaps in a rebuilt evaluator while
// in-flight queries drain against the old one. The serving registry
// runs one per hosted network.
type VersionedEvaluator = query.VersionedEvaluator

// NewVersionedEvaluator wraps a network (snapshotted at entry) in a
// versioned evaluator.
func NewVersionedEvaluator(nw *Network) *VersionedEvaluator { return query.NewVersioned(nw) }

// Registry hosts named networks for serving, one shared Evaluator per
// network. Populate it with RegisterSpec/Register (or LoadManifest) and
// hand it to NewServer; see internal/serve and DESIGN.md §8.
type Registry = serve.Registry

// Server is the HTTP face of the query service: /v1/networks,
// /v1/evaluate, /v1/batch, /healthz and /statsz over a registry, with
// canonicalized result caching, singleflight coalescing, and at most the
// registry's evaluation width (Registry.SetParallel) of evaluations
// running at once. It implements http.Handler; Close it when done.
type Server = serve.Server

// ServeOptions tune a Server (cache capacity, request logging and the
// slow-request threshold); the zero value selects the defaults.
type ServeOptions = serve.Options

// NewRegistry returns an empty serving registry at evaluation width
// GOMAXPROCS.
func NewRegistry() *Registry { return serve.NewRegistry() }

// NewServer builds the query service over a registry. Serve it with any
// http.Server (it is an http.Handler); cmd/wmcsd is the packaged
// daemon, cmd/wmcsload the workload driver against it.
func NewServer(reg *Registry, opts ServeOptions) *Server { return serve.NewServer(reg, opts) }

// OptimalCost returns C*(R) from the best exact solver available for the
// network class (closed forms for α = 1 and d = 1, subset-Dijkstra
// otherwise; the latter is limited to small n).
func OptimalCost(nw *Network, R []int) float64 {
	return wireless.OptimalMulticastCost(nw, R)
}

// Describe returns the registry descriptor of the named mechanism, the
// MechanismInfo Verify checks an outcome against; unknown names wrap
// ErrUnknownMechanism.
func Describe(name string) (MechanismInfo, error) { return mechreg.ByName(name) }

// Verify checks an outcome under a profile against the per-outcome
// axioms the mechanism's descriptor declares: NPT and VP where declared,
// and cost recovery only for mechanisms with a budget-balance guarantee,
// so a marginal-cost outcome's deficit is not a violation.
func Verify(info MechanismInfo, u Profile, o Outcome) error {
	return info.Guarantees.CheckOutcome(u, o)
}

// VerifyStrategyproof probes the mechanism with the default deviation
// factors around the given truthful profile.
func VerifyStrategyproof(m Mechanism, truth Profile) error {
	return mech.CheckStrategyproof(m, truth, nil)
}
