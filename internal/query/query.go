// Package query implements the build-once / query-many evaluation engine
// over a fixed wireless network (DESIGN.md §7). The paper's mechanisms
// answer many receiver-set queries against one network — who is served,
// who pays — and every layer below this package is amortizable: the
// MEMT→NWST reduction depends only on the network, mechanism construction
// (universal trees, interval tables) depends only on the network, and the
// NWST contraction states are resettable. An Evaluator performs each of
// those constructions at most once and serves an arbitrary number of
// Evaluate/EvaluateBatch queries against them.
//
// Which mechanisms exist, what networks they admit and how they are
// built comes from the descriptor registry (internal/mechreg, DESIGN.md
// §9): the evaluator is a registry client — it owns the per-network
// BuildContext (the shared substrate the descriptors' Build closures
// draw from) and caches one built mechanism per name.
//
// Determinism contract: a query's result is byte-identical no matter how
// the evaluator has been used before (pooled states reset to
// as-constructed behavior) and no matter the EvaluateBatch worker count
// (results are collected order-stably by the engine pool). Mechanisms
// cached here must be safe for concurrent Run, which every registry
// mechanism is: they are read-only after construction, and the wireless
// mechanism's contraction-state pool is mutex-guarded.
package query

import (
	"errors"
	"fmt"
	"sync"

	"wmcs/internal/engine"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/memtred"
	"wmcs/internal/nwst"
	"wmcs/internal/wireless"
)

// Names lists the mechanism names an Evaluator accepts, in registry
// order (delegated to the descriptor registry — the single source of
// truth for mechanism names).
func Names() []string { return mechreg.Names() }

// ErrUnknownMechanism and ErrUnsupportedDomain are the registry's typed
// lookup errors, re-exported so evaluator callers can branch without
// importing mechreg: an unknown name is a caller bug (the serving layer
// answers 400), a domain mismatch is a valid name on the wrong network
// class (422).
var (
	ErrUnknownMechanism  = mechreg.ErrUnknownMechanism
	ErrUnsupportedDomain = mechreg.ErrUnsupportedDomain
)

// Evaluator is the reusable query engine for one network: it caches the
// shared substrate (MEMT→NWST reduction, universal tree) inside a
// registry BuildContext and one mechanism instance per registry name,
// each built on first use.
//
// Concurrency: an Evaluator is safe for unbounded concurrent use, from a
// cold start onward — the serving layer shares one per hosted network
// across every client. The discipline is two-layered:
//
//   - construction is serialized by e.mu: the BuildContext's substrate
//     caches and the mechanism map are only read or written with the
//     mutex held, so concurrent first queries race to the lock, one
//     builds, and the rest observe the completed value;
//   - execution is lock-free: Run is invoked on the shared mechanism
//     outside the mutex, which is sound because every registry mechanism
//     is immutable after construction, and the one piece of mutable
//     per-query state — the wireless mechanism's NWST contraction
//     workspace — is checked out of a mutex-guarded StatePool
//     (nwst.StatePool), giving each concurrent Run a private state.
//     The pool's table of uncontracted distance rows is shared by all
//     of them: filled once under a sync.Once by the first oracle call
//     that needs it, and read-only after.
//
// The determinism contract survives concurrency: pooled states reset to
// as-constructed behavior, so a query's outcome is bit-identical no
// matter which goroutine runs it, how many run at once, or what ran
// before (TestEvaluatorConcurrentHammer pins this under -race).
type Evaluator struct {
	net *wireless.Network
	// noDelta disables the versioned evaluator's delta-aware update
	// paths (WithoutDeltaRebuild) — carried here because options apply
	// per evaluator and VersionedEvaluator consults the current one.
	noDelta bool

	mu    sync.Mutex
	ctx   *mechreg.BuildContext
	mechs map[string]mech.Mechanism
}

// Option tunes an Evaluator at construction.
type Option func(*Evaluator)

// WithOracle selects the spider oracle of the wireless-bb mechanism
// (default nwst.BranchSpiderOracle, the paper's 1.5 ln k choice).
func WithOracle(o nwst.Oracle) Option {
	return func(e *Evaluator) { e.ctx.Oracle = o }
}

// WithWidth runs each query's spider-oracle scans on an engine pool of
// the given width (DESIGN.md §14); the default is 1. The bytes are the
// same at every width, so the width trades only latency against cores.
// It panics for widths below 1: resolving "0 means GOMAXPROCS" is the
// flag layer's job, so an evaluator's width is always explicit.
func WithWidth(workers int) Option {
	if workers < 1 {
		panic(fmt.Sprintf("query: width must be >= 1, got %d", workers))
	}
	return func(e *Evaluator) {
		if workers > 1 {
			e.ctx.Pool = engine.New(workers)
		}
	}
}

// WithoutDeltaRebuild makes VersionedEvaluator.Update always rebuild
// from scratch, ignoring the mutation delta. It exists as the
// full-rebuild baseline the E15 experiment and the differential sweep
// compare the delta path against — production callers want the default.
func WithoutDeltaRebuild() Option {
	return func(e *Evaluator) { e.noDelta = true }
}

// NewEvaluator builds the query engine for a network. Construction is
// cheap: all per-network work (reduction, universal tree, interval
// tables) happens lazily on the first query that needs it.
func NewEvaluator(nw *wireless.Network, opts ...Option) *Evaluator {
	e := &Evaluator{
		net:   nw,
		ctx:   mechreg.NewBuildContext(nw),
		mechs: make(map[string]mech.Mechanism),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Network returns the network the evaluator serves.
func (e *Evaluator) Network() *wireless.Network { return e.net }

// Reduction returns the network's MEMT→NWST reduction, built on first
// call and shared by every wireless-bb query afterwards.
func (e *Evaluator) Reduction() *memtred.Reduction {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctx.Reduction()
}

// builtReduction peeks at the reduction without forcing a build: the
// versioned update path only has a donor when some query already paid
// for one.
func (e *Evaluator) builtReduction() *memtred.Reduction {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctx.PeekReduction()
}

// seedReduction installs an incrementally rebuilt reduction before the
// evaluator is published (VersionedEvaluator.Update's delta path).
func (e *Evaluator) seedReduction(rd *memtred.Reduction) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctx.SeedReduction(rd)
}

// Supported lists, in registry order, the mechanism names whose declared
// domain admits this evaluator's network — exactly the names Evaluate
// will not reject with ErrUnsupportedDomain.
func (e *Evaluator) Supported() []string { return mechreg.SupportedNames(e.net) }

// Mechanism returns the cached mechanism for a registry name, building
// and validating it on first use (a registry lookup plus the
// descriptor's domain check; errors wrap ErrUnknownMechanism or
// ErrUnsupportedDomain and carry the public "wmcs:" prefix because they
// surface unchanged through the wmcs.Evaluator alias and wmcs.ByName).
// The returned mechanism is shared: all registry mechanisms are safe
// for concurrent Run.
func (e *Evaluator) Mechanism(name string) (mech.Mechanism, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.mechs[name]; ok {
		return m, nil
	}
	// Built with e.mu held so the BuildContext's substrate caches
	// (reduction, SPT) are read and written consistently.
	m, err := mechreg.Build(name, e.ctx)
	if err != nil {
		return nil, err
	}
	e.mechs[name] = m
	return m, nil
}

// Evaluate runs one receiver-set query: mechanism name, candidate
// receiver set R, reported profile u. R restricts the query — stations
// outside R are treated as not requesting service (utility 0); a nil R
// means every station may be served. The mechanism then decides, within
// R, who is actually served and what each receiver pays.
func (e *Evaluator) Evaluate(name string, R []int, u mech.Profile) (mech.Outcome, error) {
	m, err := e.Mechanism(name)
	if err != nil {
		return mech.Outcome{}, err
	}
	if R != nil {
		u = restrict(u, R)
	}
	return m.Run(u), nil
}

// ErrNoApproxTier marks an approximate request against a mechanism whose
// descriptor declares no sampled tier. The name and network class are
// fine — only the tier selection is not — so the serving layer answers a
// structured 422, like a domain mismatch.
var ErrNoApproxTier = errors.New("mechanism has no approximate tier")

// EvaluateApprox runs one receiver-set query on the mechanism's sampled
// tier: same restriction semantics as Evaluate, plus the (ε, δ)
// certificate of the returned shares. It fails with ErrNoApproxTier when
// the mechanism does not implement mech.ApproxRunner, and passes through
// the spec-validation error of an invalid ApproxSpec.
func (e *Evaluator) EvaluateApprox(name string, R []int, u mech.Profile, spec mech.ApproxSpec) (mech.Outcome, mech.ApproxCert, error) {
	m, err := e.Mechanism(name)
	if err != nil {
		return mech.Outcome{}, mech.ApproxCert{}, err
	}
	ar, ok := m.(mech.ApproxRunner)
	if !ok {
		return mech.Outcome{}, mech.ApproxCert{}, fmt.Errorf("wmcs: %q: %w", name, ErrNoApproxTier)
	}
	if R != nil {
		u = restrict(u, R)
	}
	return ar.RunApprox(u, spec)
}

// restrict returns the profile that reports u inside R and 0 elsewhere.
func restrict(u mech.Profile, R []int) mech.Profile {
	v := make(mech.Profile, len(u))
	for _, r := range R {
		if r >= 0 && r < len(u) {
			v[r] = u[r]
		}
	}
	return v
}

// Request is one EvaluateOne or EvaluateBatch query.
type Request struct {
	Mech    string       // registry mechanism name
	R       []int        // candidate receiver set; nil = all stations
	Profile mech.Profile // reported utilities
	// Approx selects the mechanism's sampled tier; nil runs exact. The
	// two tiers never share results: the serving layer keys its cache on
	// the canonicalized spec.
	Approx *mech.ApproxSpec
}

// Response pairs a request's outcome with its per-request error (bad
// mechanism name or network class); Outcome is meaningful iff Err is nil.
// Cert is non-nil exactly for successful approximate-tier requests.
type Response struct {
	Outcome mech.Outcome
	Cert    *mech.ApproxCert
	Err     error
}

// EvaluateBatch evaluates the requests on an engine pool of the given
// width (1 = serial, ≤ 0 = GOMAXPROCS) and returns the responses in
// request order. Results are byte-identical at every worker count:
// requests are independent, the engine collects order-stably, and the
// shared substrates behave identically no matter which worker touches
// them first.
func (e *Evaluator) EvaluateBatch(reqs []Request, workers int) []Response {
	pool := engine.New(workers)
	return engine.Map(pool, len(reqs), func(i int) Response {
		return e.EvaluateOne(reqs[i])
	})
}

// EvaluateOne evaluates one request on the exact or the sampled tier:
// the single-request entry point the serving layer calls per cache miss,
// and what EvaluateBatch maps over its requests.
func (e *Evaluator) EvaluateOne(req Request) Response {
	if spec := req.Approx; spec != nil {
		o, cert, err := e.EvaluateApprox(req.Mech, req.R, req.Profile, *spec)
		if err != nil {
			return Response{Err: err}
		}
		return Response{Outcome: o, Cert: &cert}
	}
	o, err := e.Evaluate(req.Mech, req.R, req.Profile)
	return Response{Outcome: o, Err: err}
}
