package serve

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
	"wmcs/internal/wireless"
)

// ErrDuplicateNetwork marks a Register/RegisterSpec failure caused by
// the name being taken (as opposed to the spec being invalid); the HTTP
// layer maps it to 409 and everything else to 400.
var ErrDuplicateNetwork = errors.New("already registered")

// Registry holds the named networks a server hosts, one shared
// query.Evaluator per network — the evaluator caches the per-network
// substrates (NWST reduction, universal tree, mechanism instances), so
// every client of a network amortizes the same construction. Safe for
// concurrent use.
type Registry struct {
	mu    sync.RWMutex
	nets  map[string]*NetworkEntry
	order []string // registration order, for stable listings
	// width is the evaluation width every *future* registration builds
	// its evaluators with (query.WithWidth), and the compute-slot count
	// of a server built over the registry; default GOMAXPROCS. Set it
	// before registering — SetParallel does not retrofit existing
	// entries.
	width int
}

// NetworkEntry is one hosted network. Spec is the manifest spec it was
// built from (zero-valued when the network was registered directly).
type NetworkEntry struct {
	Name string
	Spec instances.Spec
	// Net is the network as registered. Its station count, source and
	// class are immutable under the lifecycle ops, so request
	// validation and domain checks read it freely; *current* costs live
	// in the versioned evaluator's snapshot (Ev.Network()), which PATCH
	// updates swap out from under it.
	Net *wireless.Network
	// Ev is the versioned query engine: reads resolve one consistent
	// {evaluator, version} pair, updates mutate a private copy and swap
	// atomically while admitted queries drain on the pair they hold.
	Ev *query.VersionedEvaluator
	// Supported is the registry-derived mechanism set this network's
	// domain admits, in registry order — exactly what /v1/networks
	// advertises for the entry and what evaluation will not 422.
	// Computed once at registration (the network class never changes,
	// updates included: mutation ops preserve it by construction).
	Supported []string
	supports  map[string]bool
	// gen is this registration's unique generation number: cache keys
	// are prefixed with it, so results computed against this entry can
	// never be served for a later network registered under the same
	// name (the evict → re-register race).
	gen uint64
	// evicted flips (before the evict handler purges the name's cache
	// prefix) when the entry leaves its registry. Server.compute
	// re-checks it after caching a result so a query that was admitted
	// before the evict cannot strand an unreachable entry in LRU
	// capacity.
	evicted atomic.Bool
}

// registrations hands out generation numbers, unique across every
// registry in the process.
var registrations atomic.Uint64

// prefixFor is the cache-key prefix of one (registration, version)
// generation: `name ␟ regGen.version ␟`. The registration half retires
// the keys across evict → re-register cycles; the version half retires
// them across in-place updates — either bump makes every older key
// unreachable by construction, which is why invalidation is O(1) and
// race-free (no purge has to *complete* before correctness holds; the
// purges only reclaim space). It starts with name+0x1f so eviction by
// name prefix (networkKeyPrefix) catches every generation of the name.
func (e *NetworkEntry) prefixFor(version uint64) string {
	return e.Name + "\x1f" + strconv.FormatUint(e.gen, 10) + "." + strconv.FormatUint(version, 10) + "\x1f"
}

// NewRegistry returns an empty registry at evaluation width
// GOMAXPROCS: cache misses evaluate on every core.
func NewRegistry() *Registry {
	return &Registry{nets: make(map[string]*NetworkEntry), width: runtime.GOMAXPROCS(0)}
}

// SetParallel sets the evaluation width (DESIGN.md §14) every future
// registration builds its versioned evaluators with, and that NewServer
// reads for its compute slots and its parallel_eval exposition; the
// default is GOMAXPROCS. The bytes served are the same at every width.
// It panics for widths below 1: resolving "0 means GOMAXPROCS" is the
// flag layer's job. The width carries across PATCH swaps automatically
// (VersionedEvaluator re-applies its construction options on every
// rebuild). Call before registering networks and before NewServer —
// entries already hosted keep the width they were built with.
func (r *Registry) SetParallel(workers int) {
	if workers < 1 {
		panic(fmt.Sprintf("serve: evaluation width must be >= 1, got %d", workers))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.width = workers
}

// parallel reports the registry's evaluation width.
func (r *Registry) parallel() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.width
}

// evalOpts resolves the evaluator construction options a new entry uses.
func (r *Registry) evalOpts() []query.Option {
	return []query.Option{query.WithWidth(r.parallel())}
}

// DefaultSpecs is the demo manifest wmcsd and wmcsload fall back to
// when no -manifest is given: a small scenario-diverse set, cheap
// enough that cold wireless-bb queries stay in the tens of
// milliseconds.
func DefaultSpecs() []instances.Spec {
	return []instances.Spec{
		{Name: "uni12", Scenario: "uniform", N: 12, Alpha: 2, Seed: 1},
		{Name: "clust12", Scenario: "clustered", N: 12, Alpha: 2, Seed: 2},
		{Name: "ring10", Scenario: "ring", N: 10, Alpha: 2, Seed: 3},
		{Name: "line12", Scenario: "line", N: 12, Alpha: 2, Seed: 4},
	}
}

// Register hosts a network under a name. Names are unique: registering
// an existing name is an error (evict first — silent replacement would
// let stale cache entries describe a different network).
func (r *Registry) Register(name string, nw *wireless.Network) error {
	// Validate the name before NewVersioned snapshots the network, so a
	// rejected registration does no construction work.
	if err := validateName(name); err != nil {
		return err
	}
	return r.add(&NetworkEntry{Name: name, Net: nw, Ev: query.NewVersioned(nw, r.evalOpts()...)})
}

// RegisterSpec builds a scenario-registry spec and hosts the result
// under the spec's name.
func (r *Registry) RegisterSpec(sp instances.Spec) error {
	if sp.Name == "" {
		return fmt.Errorf("serve: spec %v has no name", sp)
	}
	nw, err := sp.Build()
	if err != nil {
		return err
	}
	return r.add(&NetworkEntry{Name: sp.Name, Spec: sp, Net: nw, Ev: query.NewVersioned(nw, r.evalOpts()...)})
}

// CheckMech reports whether the entry's network admits the named
// mechanism; a non-nil error wraps mechreg.ErrUnsupportedDomain (or
// ErrUnknownMechanism) and is what the HTTP layer maps to a structured
// 422. The common case is an O(1) set lookup against the snapshot taken
// at registration.
func (e *NetworkEntry) CheckMech(name string) error {
	if e.supports != nil && e.supports[name] {
		return nil
	}
	// Miss or hand-built entry (tests): ask the registry for the
	// canonical typed error.
	return mechreg.Supports(name, e.Net)
}

func (r *Registry) add(e *NetworkEntry) error {
	if err := validateName(e.Name); err != nil {
		return err
	}
	e.Supported = mechreg.SupportedNames(e.Net)
	e.supports = make(map[string]bool, len(e.Supported))
	for _, n := range e.Supported {
		e.supports[n] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nets[e.Name]; ok {
		return fmt.Errorf("serve: network %q %w", e.Name, ErrDuplicateNetwork)
	}
	e.gen = registrations.Add(1)
	r.nets[e.Name] = e
	r.order = append(r.order, e.Name)
	return nil
}

// validateName rejects names that would break the machinery around
// them: control characters collide with the 0x1f cache-key separator
// (a name "a\x1fb" would be purged by evicting "a"), and '/' can never
// be addressed by the DELETE /v1/networks/{name} route.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: network name is empty")
	}
	for _, c := range name {
		if c < 0x20 || c == 0x7f || c == '/' {
			return fmt.Errorf("serve: network name %q contains %q (control characters and '/' are not allowed)", name, c)
		}
	}
	return nil
}

// Evict removes a network, reporting whether it was present. In-flight
// queries keep the entry they were admitted with and complete normally
// (their results land under the evicted generation's cache keys, which
// no future request can form); the server purges the name's cache
// entries.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.nets[name]
	if !ok {
		return false
	}
	e.evicted.Store(true)
	delete(r.nets, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// Get looks a network up by name.
func (r *Registry) Get(name string) (*NetworkEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.nets[name]
	return e, ok
}

// Entries lists the hosted networks in registration order.
func (r *Registry) Entries() []*NetworkEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*NetworkEntry, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.nets[name])
	}
	return out
}

// Len returns the number of hosted networks.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nets)
}

// LoadManifest registers every spec of a startup manifest: a JSON array
// of scenario-registry specs, e.g.
//
//	[{"name": "uni-32", "scenario": "uniform", "n": 32, "alpha": 2, "seed": 7},
//	 {"name": "line-16", "scenario": "line", "n": 16, "seed": 3}]
//
// It returns how many networks it registered; on error the networks
// registered before the failing spec stay registered (the daemon treats
// any error as fatal at boot).
func (r *Registry) LoadManifest(src io.Reader) (int, error) {
	specs, err := instances.ParseManifest(src)
	if err != nil {
		return 0, err
	}
	for i, sp := range specs {
		if err := r.RegisterSpec(sp); err != nil {
			return i, fmt.Errorf("serve: manifest entry %d (%s): %w", i, sp, err)
		}
	}
	return len(specs), nil
}
