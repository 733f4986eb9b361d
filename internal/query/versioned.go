package query

import (
	"sync"
	"sync/atomic"
	"time"

	"wmcs/internal/detorder"
	"wmcs/internal/memtred"
	"wmcs/internal/wireless"
)

// Versioned is one immutable network state and the evaluator serving
// it: the pair an atomic load of VersionedEvaluator.Current returns.
// Readers that grab a Versioned keep a consistent view for as long as
// they hold it — the network snapshot inside is never mutated again —
// so a query admitted against version v evaluates against exactly
// version v's costs even if a dozen updates land meanwhile.
type Versioned struct {
	// Ev is the evaluator over this version's frozen network snapshot.
	Ev *Evaluator
	// Version is the network's wireless.(*Network).Version() at the
	// moment this state was frozen.
	Version uint64
}

// VersionedEvaluator is the live-network face of the query engine
// (DESIGN.md §10): it owns a master copy of a mutable network and, per
// version, an immutable {snapshot, evaluator} pair. Reads are lock-free
// (one atomic pointer load); updates serialize on a mutex, mutate a
// private copy, rebuild the evaluator over it, warm the mechanisms the
// outgoing evaluator had built, and atomically swap the pair in.
// In-flight queries drain against the evaluator they were admitted
// with — an update never invalidates, blocks, or tears them.
type VersionedEvaluator struct {
	// mu serializes Update; Current is deliberately not behind it.
	mu   sync.Mutex
	opts []Option
	// live is the master network state. It is only read and replaced
	// inside Update (under mu); the evaluator in cur always holds the
	// same state, reachable lock-free.
	live *wireless.Network
	cur  atomic.Pointer[Versioned]
}

// NewVersioned wraps a network in a versioned evaluator. The network is
// snapshotted at entry, so the caller's copy can be mutated (or
// discarded) freely afterwards without affecting served results.
func NewVersioned(nw *wireless.Network, opts ...Option) *VersionedEvaluator {
	live := nw.Snapshot()
	v := &VersionedEvaluator{opts: opts, live: live}
	v.cur.Store(&Versioned{Ev: NewEvaluator(live, opts...), Version: live.Version()})
	return v
}

// Current returns the current {evaluator, version} pair in one atomic
// load. Callers serving a query must resolve Current once and use both
// fields from the same pair — reading the evaluator and the version in
// separate calls can interleave with an update and mislabel results.
func (v *VersionedEvaluator) Current() *Versioned { return v.cur.Load() }

// Evaluator returns the current evaluator (shorthand for callers that
// do not need the version).
func (v *VersionedEvaluator) Evaluator() *Evaluator { return v.Current().Ev }

// Version returns the current network version.
func (v *VersionedEvaluator) Version() uint64 { return v.Current().Version }

// Network returns the current version's frozen network snapshot. It is
// shared with the serving evaluator: treat it as read-only (mutate
// through Update only).
func (v *VersionedEvaluator) Network() *wireless.Network { return v.Current().Ev.Network() }

// UpdateResult reports what one Update did: the version transition,
// the rebuild wall clock, which rebuild path ran, and the accumulated
// delta.
type UpdateResult struct {
	// OldVersion and NewVersion are the version transition; equal for a
	// no-op or failed update.
	OldVersion, NewVersion uint64
	// Rebuild is the evaluator construction + warm wall clock (0 for a
	// no-op), the figure the serving layer histograms — split by
	// Incremental.
	Rebuild time.Duration
	// Incremental reports that the MEMT→NWST reduction was rebuilt
	// incrementally from the outgoing evaluator's.
	Incremental bool
	// RebuiltMechs counts the mechanisms warmed onto the new evaluator.
	RebuiltMechs int
	// Delta is the accumulated change record of the update's ops.
	Delta wireless.Delta
}

// Update applies mutate to a private copy of the live network and, if
// the copy's version advanced, swaps in an evaluator over it. The
// rules:
//
//   - mutate sees a snapshot: if it returns an error, nothing is
//     published — no version bump, no swap, and any partial mutations
//     it made die with the discarded copy (updates are atomic);
//   - a successful mutate that bumps nothing (every op a true no-op) is
//     a no-op: OldVersion == NewVersion and the current pair is
//     untouched;
//   - otherwise a new evaluator is built, even when the ops cancel out
//     (a disable+enable round trip). When the accumulated delta left
//     rows clean (a single-row SetCost) and the outgoing evaluator had
//     built the MEMT→NWST reduction, the new one is seeded with an
//     incremental rebuild (memtred.Rebuild) — structurally identical to
//     a from-scratch build, so byte-identity is preserved while the
//     dominant per-update cost scales with the dirty rows, not n³. The
//     evaluator is then *warmed*: every mechanism name the outgoing
//     evaluator had built is rebuilt (in sorted name order), so the
//     serving path never pays first-query latency right after an
//     update. Mechanism instances are never reused across versions —
//     their trajectory memos observe the whole network (DESIGN.md
//     §11.1). Rebuild is the construction+warm wall clock.
//
// WithoutDeltaRebuild disables the incremental reduction rebuild (the
// full-rebuild baseline E15b measures against). Concurrent readers keep
// whatever pair they already resolved; the swap only changes what later
// Current calls observe.
func (v *VersionedEvaluator) Update(mutate func(*wireless.Network) error) (UpdateResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	res := UpdateResult{OldVersion: v.live.Version()}
	res.NewVersion = res.OldVersion
	work := v.live.Snapshot()
	if err := mutate(work); err != nil {
		return res, err
	}
	res.Delta = work.TakeDelta()
	res.NewVersion = work.Version()
	if res.NewVersion == res.OldVersion {
		return res, nil
	}
	cur := v.cur.Load()
	start := time.Now() //lint:wallclock rebuild-duration telemetry (UpdateResult.Rebuild feeds /statsz histograms); never reaches response bytes
	next := NewEvaluator(work, v.opts...)
	if prev := cur.Ev.builtReduction(); prev != nil {
		if !cur.Ev.noDelta && !res.Delta.AllRowsDirty() && !res.Delta.NodeSetChanged {
			if rd := memtred.Rebuild(prev, work, res.Delta.DirtyRows); rd != nil {
				next.seedReduction(rd)
				res.Incremental = true
			}
		}
		if !res.Incremental {
			// The outgoing evaluator had paid for the reduction, so the
			// warm contract extends to it: rebuild from scratch now
			// rather than on the first post-update wireless-bb query.
			// (The incremental branch above already installed one.)
			next.Reduction()
		}
	}
	for _, name := range cur.Ev.BuiltNames() {
		if _, err := next.Mechanism(name); err != nil {
			// A name the old evaluator built can only fail here if mutate
			// swapped in an impossible state — refuse to publish it.
			res.NewVersion = res.OldVersion
			res.Incremental, res.Rebuild, res.RebuiltMechs = false, 0, 0
			return res, err
		}
		res.RebuiltMechs++
	}
	res.Rebuild = time.Since(start) //lint:wallclock rebuild-duration telemetry; never reaches response bytes
	v.live = work
	v.cur.Store(&Versioned{Ev: next, Version: res.NewVersion})
	return res, nil
}

// BuiltNames lists, sorted, the mechanism names this evaluator has
// built so far — the working set a versioned swap warms on the
// replacement evaluator.
func (e *Evaluator) BuiltNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return detorder.Keys(e.mechs)
}
