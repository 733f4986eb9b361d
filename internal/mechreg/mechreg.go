// Package mechreg is the mechanism descriptor registry: the single
// source of truth for the mechanism family the paper constructs — their
// registry names, declared domains (general symmetric, Euclidean α = 1,
// d = 1), declared theorem guarantees (β-budget-balance, SP vs GSP,
// NPT/VP/CS), paper anchors, and constructors. Every layer that needs to
// know "what mechanisms exist and where do they apply" — the query
// engine, the serving layer, the experiment sweeps, the CLIs, the public
// façade — reads this registry instead of keeping its own name list, so
// the declared guarantees are machine-checkable in one place (see
// conformance.go) and a new mechanism family plugs in by adding one
// Descriptor to registry.go.
//
// The Descriptor type conceptually belongs next to mech.Mechanism, but
// it lives here rather than in package mech because descriptors close
// over every mechanism package (universal, wmech, euclid1, jv) — all of
// which import mech — and because BuildContext carries concrete
// substrate types (memtred.Reduction, universal.Tree, nwst.Oracle) that
// would cycle back into mech the same way. DESIGN.md §9 records the
// contract.
package mechreg

import (
	"errors"
	"fmt"
	"strings"

	"wmcs/internal/engine"
	"wmcs/internal/mech"
	"wmcs/internal/memtred"
	"wmcs/internal/nwst"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
)

// ErrUnknownMechanism marks a lookup of a name no descriptor registers.
// Callers branch on it with errors.Is; the serving layer maps it to 400.
var ErrUnknownMechanism = errors.New("unknown mechanism")

// ErrUnsupportedDomain marks a build attempt on a network outside the
// mechanism's declared domain (e.g. a d = 1 mechanism on a planar
// network). The name is valid — only the (mechanism, network) pairing is
// not — so the serving layer maps it to a structured 422, distinct from
// the 400 of ErrUnknownMechanism.
var ErrUnsupportedDomain = errors.New("unsupported network domain")

// Strength is a strategyproofness grade: SP (no single agent profits by
// misreporting) or GSP (no coalition profits without hurting a member).
type Strength int

const (
	// SP is plain strategyproofness.
	SP Strength = iota
	// GSP is group strategyproofness (implies SP).
	GSP
)

// String renders the grade the way the paper's tables abbreviate it.
func (s Strength) String() string {
	if s == GSP {
		return "GSP"
	}
	return "SP"
}

// BBReference names the cost a budget-balance guarantee is stated
// against. The distinction matters for checking: the universal-tree
// Shapley mechanism balances exactly against the cost of the tree
// solution it builds (which may exceed the optimum without bound on
// adversarial geometries), while the β-BB theorems bound Σ shares by
// β·C*(R) against the true optimum.
type BBReference int

const (
	// BBNone: no budget-balance or cost-recovery guarantee (the
	// marginal-cost mechanisms, which trade budget balance for
	// efficiency — the §1.1 impossibility).
	BBNone BBReference = iota
	// BBSolution: Σ shares equals the cost of the solution the
	// mechanism built, exactly (β = 1 against its own cost function).
	BBSolution
	// BBOptimum: cost recovery plus Σ shares ≤ β(nw, k) · C*(R) against
	// the exact multicast optimum.
	BBOptimum
)

// String renders the reference for metadata listings.
func (r BBReference) String() string {
	switch r {
	case BBSolution:
		return "solution"
	case BBOptimum:
		return "optimum"
	}
	return "none"
}

// Guarantees is the machine-checkable statement of a mechanism's
// theorem: what the paper declares, in the form the conformance harness
// verifies (conformance.go).
type Guarantees struct {
	// BB states which budget-balance guarantee holds (see BBReference).
	BB BBReference
	// Beta returns the declared budget-balance factor for a k-receiver
	// outcome on nw; only consulted when BB == BBOptimum. A return
	// ≤ 0 means the theorem declares no factor for this network class
	// (e.g. the moat mechanism outside Euclidean geometry), so the β
	// check is skipped there while cost recovery still applies.
	Beta func(nw *wireless.Network, k int) float64
	// BetaLabel is the human form of Beta for tables: "1", "3·ln(k+1)",
	// "2(3^d−1)". Empty when BB == BBNone.
	BetaLabel string
	// Strategyproofness is the declared grade, checked by deviation
	// sampling with the matching checker (SP: unilateral deviations;
	// GSP: sampled coalitions too).
	Strategyproofness Strength
	// SPGap names a documented finding (EXPERIMENTS.md) when the
	// paper's strategyproofness claim has a known counterexample; the
	// conformance harness then reports sampled violations as the known
	// gap instead of failing. Empty for mechanisms whose claim holds.
	SPGap string
	// NPT, VP, CS are the declared axioms: no positive transfers,
	// voluntary participation, consumer sovereignty.
	NPT, VP, CS bool
	// Efficient marks the mechanisms that maximize net worth (the
	// marginal-cost family) — metadata only, measured by E3/E7/E8.
	Efficient bool
}

// BBLabel renders the declared budget-balance guarantee for listings:
// "1-BB (vs its solution)", "3·ln(k+1)-BB (vs C*)", or "no BB". Every
// human-facing rendering (the README table, cmd/wmcs -list) goes
// through this one method so the semantics cannot fork.
func (g Guarantees) BBLabel() string {
	switch g.BB {
	case BBSolution:
		return g.BetaLabel + "-BB (vs its solution)"
	case BBOptimum:
		return g.BetaLabel + "-BB (vs C*)"
	}
	return "no BB"
}

// SPLabel renders the strategyproofness grade for listings: "GSP" or
// "SP", a "*" marking a declared gap (SPGap), ", efficient" appended
// for the marginal-cost family.
func (g Guarantees) SPLabel() string {
	s := g.Strategyproofness.String()
	if g.SPGap != "" {
		s += "*"
	}
	if g.Efficient {
		s += ", efficient"
	}
	return s
}

// Descriptor declares one registry mechanism: identity, domain,
// guarantees, and how to build it over the shared substrate.
type Descriptor struct {
	// Name is the registry name, unique and stable — the one string
	// clients, caches and reports use.
	Name string
	// Family groups variants built from the same game ("universal-tree",
	// "nwst-reduction", "euclid-alpha1", "euclid-line", "moat").
	Family string
	// Domain is the human-readable network-class requirement.
	Domain string
	// PaperRef anchors the descriptor to the theorem or section that
	// proves its guarantees.
	PaperRef string
	// Desc is a one-line description for listings.
	Desc string
	// Approx declares that the built mechanism offers the sampled
	// Shapley tier (mech.ApproxRunner): requests may carry an ApproxSpec
	// and receive an (ε, δ)-certified outcome. The conformance tests
	// verify the flag against what Build actually produces, so a
	// descriptor cannot advertise a tier its mechanism lacks (or hide
	// one it has).
	Approx bool
	// Guarantees is the declared theorem statement.
	Guarantees Guarantees
	// Supports reports whether the mechanism's domain admits nw: nil
	// means every symmetric network. A non-nil return wraps
	// ErrUnsupportedDomain.
	Supports func(nw *wireless.Network) error
	// Build constructs the mechanism over the shared substrate. It must
	// only be called after Supports accepted ctx's network; the registry
	// wraps the result so Name() always reports the registry name.
	Build func(ctx *BuildContext) (mech.Mechanism, error)
}

// BuildContext carries the per-network substrate a Build closure may
// need, constructed at most once and shared across every mechanism
// built for the same network: the network itself, the spider oracle
// selection, the MEMT→NWST reduction and the universal shortest-path
// tree (both built lazily on first use).
//
// A BuildContext is NOT safe for concurrent use — the query evaluator
// owns one per network and serializes access under its own mutex, which
// is the ownership rule DESIGN.md §9 documents.
type BuildContext struct {
	// Net is the network every substrate hangs off.
	Net *wireless.Network
	// Oracle is the NWST spider oracle for the general wireless
	// mechanism; nil selects the branch-spider oracle (the paper's
	// 1.5·ln k choice) scanning on Pool. An explicit Oracle runs as
	// given.
	Oracle nwst.Oracle
	// Pool is the width the default spider oracle scans its center
	// slices at (DESIGN.md §14); nil means width 1. The bytes are the
	// same at every width.
	Pool *engine.Pool

	rd  *memtred.Reduction
	spt *universal.Tree
}

// NewBuildContext wraps a network with an empty substrate cache.
func NewBuildContext(nw *wireless.Network) *BuildContext {
	return &BuildContext{Net: nw}
}

// Reduction returns the MEMT→NWST reduction, built on first call and
// shared by every later mechanism built from this context.
func (c *BuildContext) Reduction() *memtred.Reduction {
	if c.rd == nil {
		c.rd = memtred.New(c.Net)
	}
	return c.rd
}

// SeedReduction installs a pre-built reduction so later Reduction calls
// reuse it instead of paying memtred.New. The versioned evaluator's
// delta path seeds the incrementally rebuilt reduction
// (memtred.Rebuild) here; rd.Net must be the context's network.
func (c *BuildContext) SeedReduction(rd *memtred.Reduction) {
	if rd.Net != c.Net {
		panic("mechreg: SeedReduction: reduction built over a different network")
	}
	c.rd = rd
}

// PeekReduction returns the reduction if one has been built (or
// seeded), else nil — the donor probe of the incremental update path,
// which must not force a build just to ask.
func (c *BuildContext) PeekReduction() *memtred.Reduction { return c.rd }

// SPT returns the universal shortest-path tree, built on first call.
func (c *BuildContext) SPT() *universal.Tree {
	if c.spt == nil {
		c.spt = universal.SPT(c.Net)
	}
	return c.spt
}

// oracle resolves the context's oracle selection: an explicit Oracle,
// else the branch-spider oracle at the pool's width.
func (c *BuildContext) oracle() nwst.Oracle {
	if c.Oracle != nil {
		return c.Oracle
	}
	return nwst.BranchSpiderOracleOn(c.Pool)
}

// named pins a built mechanism's reported name to its registry name, so
// the descriptor is the only place a public mechanism name is spelled:
// mechanism packages may keep package-internal default names for direct
// construction, but everything built through the registry answers with
// the descriptor's.
type named struct {
	name string
	mech.Mechanism
}

func (n named) Name() string { return n.name }

// namedApprox is named for mechanisms with a sampled tier: it forwards
// RunApprox so the mech.ApproxRunner assertion survives the name-pinning
// wrapper. build selects it exactly when the built mechanism implements
// the interface.
type namedApprox struct {
	named
	ar mech.ApproxRunner
}

// RunApprox implements mech.ApproxRunner.
func (n namedApprox) RunApprox(u mech.Profile, spec mech.ApproxSpec) (mech.Outcome, mech.ApproxCert, error) {
	return n.ar.RunApprox(u, spec)
}

// All returns the registry in presentation order (shared slice, do not
// modify). The order is the paper's: §2 general constructions first,
// then the §3 Euclidean specials.
func All() []Descriptor { return registry }

// Names lists the registry names in order.
func Names() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Name
	}
	return names
}

// Default is the registry's first name — the CLI's default mechanism.
func Default() string { return registry[0].Name }

// ByName looks a descriptor up, or fails with ErrUnknownMechanism.
func ByName(name string) (Descriptor, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	return Descriptor{}, fmt.Errorf("wmcs: %w %q (try one of %v)", ErrUnknownMechanism, name, Names())
}

// Supports reports whether the named mechanism's declared domain admits
// nw; the error wraps ErrUnknownMechanism or ErrUnsupportedDomain.
func Supports(name string, nw *wireless.Network) error {
	d, err := ByName(name)
	if err != nil {
		return err
	}
	if d.Supports == nil {
		return nil
	}
	return d.Supports(nw)
}

// SupportedNames lists, in registry order, the mechanisms whose domain
// admits nw. This is what /v1/networks advertises per network and what
// the workload driver re-pins within.
func SupportedNames(nw *wireless.Network) []string {
	names := make([]string, 0, len(registry))
	for _, d := range registry {
		if d.Supports == nil || d.Supports(nw) == nil {
			names = append(names, d.Name)
		}
	}
	return names
}

// GeneralNames lists the mechanisms whose domain is every symmetric
// network (Supports == nil) — the set a multi-network workload can pin
// queries to without ever re-pinning.
func GeneralNames() []string {
	names := make([]string, 0, len(registry))
	for _, d := range registry {
		if d.Supports == nil {
			names = append(names, d.Name)
		}
	}
	return names
}

// Build constructs the named mechanism over ctx, enforcing the declared
// domain first. The result reports the registry name and is safe for
// concurrent Run (every registry mechanism is immutable after
// construction; the wireless mechanism's contraction states come from a
// mutex-guarded pool).
func Build(name string, ctx *BuildContext) (mech.Mechanism, error) {
	d, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return d.build(ctx)
}

// build is Descriptor-level Build: domain check, construct, pin name.
func (d Descriptor) build(ctx *BuildContext) (mech.Mechanism, error) {
	if d.Supports != nil {
		if err := d.Supports(ctx.Net); err != nil {
			return nil, err
		}
	}
	m, err := d.Build(ctx)
	if err != nil {
		return nil, err
	}
	nm := named{name: d.Name, Mechanism: m}
	if ar, ok := m.(mech.ApproxRunner); ok {
		return namedApprox{named: nm, ar: ar}, nil
	}
	return nm, nil
}

// unsupported builds the canonical domain-mismatch error: "wmcs: <msg>"
// wrapping ErrUnsupportedDomain so every layer can branch on the type
// while the message stays what the CLIs have always printed.
func unsupported(format string, args ...any) error {
	return fmt.Errorf("wmcs: %s (%w)", fmt.Sprintf(format, args...), ErrUnsupportedDomain)
}

// MarkdownTable renders the registry as the README's mechanism table:
// one row per descriptor — name, domain, β-BB, SP/GSP, paper anchor.
// README.md embeds the output between mechtable markers and an
// integration test regenerates and compares it, so the documented table
// can never drift from the registry.
func MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| name | domain | β-BB | SP/GSP | axioms | paper |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, d := range registry {
		g := d.Guarantees
		bb := g.BBLabel()
		sp := g.SPLabel()
		axioms := make([]string, 0, 3)
		if g.NPT {
			axioms = append(axioms, "NPT")
		}
		if g.VP {
			axioms = append(axioms, "VP")
		}
		if g.CS {
			axioms = append(axioms, "CS")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n",
			d.Name, d.Domain, bb, sp, strings.Join(axioms, "/"), d.PaperRef)
	}
	return b.String()
}
