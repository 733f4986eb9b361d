package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wmcs/internal/detorder"
	"wmcs/internal/mechreg"
	"wmcs/internal/obs"
)

// Stats carries the service's expvar-style counters: monotonically
// increasing atomics sampled (never reset) by /statsz and /metricsz.
// Cache hit/miss counts live in the Cache itself; these cover admission
// and execution.
type Stats struct {
	// Queries counts /v1/evaluate requests admitted (batch elements
	// included); Coalesced the subset served by riding on a concurrent
	// identical computation; Errors the requests rejected or failed.
	Queries   atomic.Uint64
	Coalesced atomic.Uint64
	Errors    atomic.Uint64
	// InFlight is the gauge of requests currently inside an evaluate or
	// batch handler. Every increment pairs with a deferred decrement
	// taken before any other work (TrackInFlight), so the gauge drains
	// to zero on every exit path — decode failures, 404s, canonicalize
	// rejects, 422s, and recovered evaluation panics included
	// (TestInFlightDrainsOnErrorPaths hammers exactly those).
	InFlight atomic.Int64
	// SlowRequests counts OK responses slower than the server's slow
	// threshold — the numerator of a cheap SLO burn signal.
	SlowRequests atomic.Uint64
	// Evaluations counts cache misses that took a compute slot and
	// started evaluating (flight leaders; coalesced followers and hits
	// never evaluate).
	Evaluations atomic.Uint64
	// Updates counts applied PATCH deltas (version bumps; rejected,
	// empty, and all-no-op deltas do not count), UpdateOps the mutation
	// ops they carried. rebuild histograms the evaluator swap latency
	// over every counted update; rebuildInc/rebuildFull split it by
	// whether the swap took the delta path (substrate reuse) or a full
	// from-scratch rebuild, so rebuild.count == rebuildInc.count +
	// rebuildFull.count == Updates.
	Updates   atomic.Uint64
	UpdateOps atomic.Uint64
	// CarriedEntries counts cache entries the carry-forward pass
	// re-keyed from a retired version to its successor (served bytes
	// proven identical); DeltaRebuiltMechs the mechanisms warmed on
	// updates that reused substrate incrementally.
	CarriedEntries    atomic.Uint64
	DeltaRebuiltMechs atomic.Uint64

	rebuild     latHist
	rebuildInc  latHist
	rebuildFull latHist

	// stages histograms request time by pipeline stage (obs.Stage), fed
	// from finished traces: the per-stage split behind
	// wmcs_stage_duration_seconds and wmcsload's queue-wait share.
	stages [obs.NumStages]latHist

	// known is the pre-registered per-mechanism latency histogram set:
	// one entry per registry name, built at construction and immutable
	// afterwards, so the per-request lookup on the hot path is one
	// lock-free map read (BenchmarkStatsObserveKnown pins it at 0
	// allocs with no mutex in the profile). Names outside the registry
	// (hand-built test entries) fall back to the RWMutex-guarded extra
	// map — the slow path a production request never takes, since the
	// codec rejects unknown mechanism names before Observe runs.
	known map[string]*latHist
	mu    sync.RWMutex
	extra map[string]*latHist
}

// NewStats returns a counter set with every registry mechanism's
// histogram pre-registered.
func NewStats() *Stats {
	names := mechreg.Names()
	s := &Stats{
		known: make(map[string]*latHist, len(names)),
		extra: make(map[string]*latHist),
	}
	for _, n := range names {
		s.known[n] = &latHist{}
	}
	return s
}

// TrackInFlight increments the in-flight gauge and returns its paired
// decrement, for use as `defer s.TrackInFlight()()` as a handler's
// first statement — the defer fires on every exit path including
// panics, which is what makes the gauge provably drain to zero.
func (s *Stats) TrackInFlight() func() {
	s.InFlight.Add(1)
	return func() { s.InFlight.Add(-1) }
}

// hist resolves the latency histogram for a mechanism name: lock-free
// for pre-registered names, RWMutex fallback otherwise.
func (s *Stats) hist(mechName string) *latHist {
	if h, ok := s.known[mechName]; ok {
		return h
	}
	s.mu.RLock()
	h, ok := s.extra[mechName]
	s.mu.RUnlock()
	if ok {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.extra[mechName]; ok {
		return h
	}
	h = &latHist{}
	s.extra[mechName] = h
	return h
}

// Observe records one request's service latency under its mechanism
// name (admission to response, cache hits included).
func (s *Stats) Observe(mechName string, d time.Duration) {
	s.hist(mechName).observe(d)
}

// ObserveStage records one span's duration under its pipeline stage.
func (s *Stats) ObserveStage(st obs.Stage, d time.Duration) {
	if st < obs.NumStages {
		s.stages[st].observe(d)
	}
}

// ObserveRebuild records one update's evaluator rebuild+warm latency,
// split by which rebuild path ran (incremental substrate reuse vs full
// from-scratch).
func (s *Stats) ObserveRebuild(d time.Duration, incremental bool) {
	s.rebuild.observe(d)
	if incremental {
		s.rebuildInc.observe(d)
	} else {
		s.rebuildFull.observe(d)
	}
}

// RebuildLatency summarizes the rebuild histogram for /statsz.
func (s *Stats) RebuildLatency() LatencySummary { return s.rebuild.summary() }

// RebuildIncrementalLatency summarizes the delta-path subset.
func (s *Stats) RebuildIncrementalLatency() LatencySummary { return s.rebuildInc.summary() }

// RebuildFullLatency summarizes the full-rebuild subset.
func (s *Stats) RebuildFullLatency() LatencySummary { return s.rebuildFull.summary() }

// LatencySummary is the /statsz digest of one mechanism's service
// latency: count, mean, and log-bucket quantile bounds, in microseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
}

// Latencies snapshots every observed mechanism's summary, keyed by name
// (pre-registered names with zero observations are omitted, matching
// the pre-PR-8 behavior of the lazily-populated map).
func (s *Stats) Latencies() map[string]LatencySummary {
	out := make(map[string]LatencySummary)
	s.eachHist(func(name string, h *latHist) {
		if h.count.Load() > 0 {
			out[name] = h.summary()
		}
	})
	return out
}

// histSnap is one named histogram's raw exposition data (see
// latHist.snapshot for the consistency contract).
type histSnap struct {
	name    string
	buckets [latBuckets]uint64
	count   uint64
	sumNS   uint64
}

// MechHistograms snapshots every observed mechanism's latency histogram,
// sorted by name — the deterministic series order /metricsz emits.
// Zero-count histograms are omitted, matching Latencies.
func (s *Stats) MechHistograms() []histSnap {
	var out []histSnap
	s.eachHist(func(name string, h *latHist) {
		b, c, sum := h.snapshot()
		if c > 0 {
			out = append(out, histSnap{name: name, buckets: b, count: c, sumNS: sum})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// StageHistograms snapshots the per-stage histograms in obs.Stage order,
// zero-count stages included: the stage label set is fixed, which is
// what lets a scraper (wmcsload -report) diff two scrapes without
// series appearing in between.
func (s *Stats) StageHistograms() []histSnap {
	out := make([]histSnap, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		b, c, sum := s.stages[st].snapshot()
		out[st] = histSnap{name: st.String(), buckets: b, count: c, sumNS: sum}
	}
	return out
}

// RebuildHistograms snapshots the PATCH rebuild histograms split by
// path, in fixed order: "incremental", then "full".
func (s *Stats) RebuildHistograms() []histSnap {
	var out []histSnap
	for _, p := range []struct {
		name string
		h    *latHist
	}{{"incremental", &s.rebuildInc}, {"full", &s.rebuildFull}} {
		b, c, sum := p.h.snapshot()
		out = append(out, histSnap{name: p.name, buckets: b, count: c, sumNS: sum})
	}
	return out
}

// eachHist visits every per-mechanism histogram: the registry-known
// set first, then the extras, each group in ascending name order
// (detorder) so exposition output is stable scrape to scrape.
func (s *Stats) eachHist(fn func(name string, h *latHist)) {
	for name, h := range detorder.Sorted(s.known) {
		fn(name, h)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, h := range detorder.Sorted(s.extra) {
		fn(name, h)
	}
}

// latBuckets is the histogram resolution: bucket i holds latencies in
// [2^(i-1), 2^i) nanoseconds, so 48 buckets span 1ns to ~39h.
const latBuckets = 48

// latHist is a lock-free log2 histogram; quantiles are read as the
// upper bound of the bucket where the target rank lands, which is
// within 2× of the true value — plenty for a load report. /metricsz
// re-exposes the same buckets as a cumulative Prometheus histogram
// (obs.PromWriter.Log2Histogram), preserving the 2× bound.
type latHist struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [latBuckets]atomic.Uint64
}

func (h *latHist) observe(d time.Duration) {
	ns := uint64(max(d.Nanoseconds(), 0))
	h.count.Add(1)
	h.sumNS.Add(ns)
	i := 0
	for v := ns; v > 0 && i < latBuckets-1; v >>= 1 {
		i++
	}
	h.buckets[i].Add(1)
}

// snapshot loads the raw histogram: per-bucket counts plus the count
// and nanosecond sum — what the /metricsz exposition renders. count is
// the *bucket* sum, not the count atomic: the counters are read
// individually (no global lock), so under concurrent observes the two
// can be mid-update apart by the in-flight requests — deriving count
// from the very buckets being exposed keeps the scrape internally
// consistent (+Inf == _count, buckets monotone) at every instant.
func (h *latHist) snapshot() (buckets [latBuckets]uint64, count, sumNS uint64) {
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.sumNS.Load()
}

func (h *latHist) summary() LatencySummary {
	var counts [latBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	ls := LatencySummary{Count: h.count.Load()}
	if total == 0 {
		return ls
	}
	ls.MeanUS = float64(h.sumNS.Load()) / float64(total) / 1e3
	quantile := func(q float64) float64 {
		rank := uint64(q * float64(total))
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum > rank {
				return float64(uint64(1)<<uint(i)) / 1e3 // bucket upper bound, µs
			}
		}
		return float64(uint64(1)<<uint(latBuckets-1)) / 1e3
	}
	ls.P50US = quantile(0.50)
	ls.P90US = quantile(0.90)
	ls.P99US = quantile(0.99)
	return ls
}
