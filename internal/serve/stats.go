package serve

import (
	"sync/atomic"
	"time"

	"wmcs/internal/mechreg"
	"wmcs/internal/obs"
)

// Stats carries the service's expvar-style counters: monotonically
// increasing atomics sampled (never reset) by readStats, the one
// reading /statsz and /metricsz both render. Cache hit/miss counts
// live in the Cache itself; these cover admission and execution.
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
	// ops they carried. rebuildInc/rebuildFull histogram the evaluator
	// swap latency of every counted update, split by whether the swap
	// took the delta path (substrate reuse) or a full from-scratch
	// rebuild, so their counts sum to Updates.
	Updates   atomic.Uint64
	UpdateOps atomic.Uint64
	// CarriedEntries counts cache entries the carry-forward pass
	// re-keyed from a retired version to its successor (served bytes
	// proven identical); DeltaRebuiltMechs the mechanisms warmed on
	// updates that reused substrate incrementally.
	CarriedEntries    atomic.Uint64
	DeltaRebuiltMechs atomic.Uint64

	rebuildInc  latHist
	rebuildFull latHist

	// stages histograms request time by pipeline stage (obs.Stage), fed
	// from finished traces: the per-stage split behind
	// wmcs_stage_duration_seconds and wmcsload's queue-wait share.
	stages [obs.NumStages]latHist

	// known is the per-mechanism latency histogram set: one entry per
	// registry name, built at construction and immutable afterwards, so
	// the per-request lookup on the hot path is one lock-free map read
	// (BenchmarkStatsObserveKnown pins it at 0 allocs with no mutex in
	// the profile).
	known map[string]*latHist
}

// NewStats returns a counter set with every registry mechanism's
// histogram pre-registered.
func NewStats() *Stats {
	names := mechreg.Names()
	s := &Stats{known: make(map[string]*latHist, len(names))}
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

// Observe records one request's service latency under its mechanism
// name (admission to response, cache hits included). A name outside
// the registry records nothing: the codec rejects such names before a
// request is served.
func (s *Stats) Observe(mechName string, d time.Duration) {
	if h, ok := s.known[mechName]; ok {
		h.observe(d)
	}
}

// ObserveStage records one span's duration under its pipeline stage.
func (s *Stats) ObserveStage(st obs.Stage, d time.Duration) {
	if st < obs.NumStages {
		s.stages[st].observe(d)
	}
}

// ObserveRebuild records one update's evaluator rebuild+warm latency
// under the rebuild path that ran (incremental substrate reuse vs full
// from-scratch).
func (s *Stats) ObserveRebuild(d time.Duration, incremental bool) {
	if incremental {
		s.rebuildInc.observe(d)
	} else {
		s.rebuildFull.observe(d)
	}
}

// LatencySummary is the /statsz digest of one latency histogram:
// count, mean, and log-bucket quantile bounds, in microseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
}

// latBuckets is the histogram resolution: bucket i holds latencies in
// [2^(i-1), 2^i) nanoseconds, so 48 buckets span 1ns to ~39h.
const latBuckets = 48

// latHist is a lock-free log2 histogram. /metricsz exposes its buckets
// as a cumulative Prometheus histogram (obs.PromWriter.Log2Histogram);
// /statsz reads quantiles as the upper bound of the bucket where the
// target rank lands, which is within 2× of the true value — plenty for
// a load report.
type latHist struct {
	sumNS   atomic.Uint64
	buckets [latBuckets]atomic.Uint64
}

func (h *latHist) observe(d time.Duration) {
	ns := uint64(max(d.Nanoseconds(), 0))
	h.sumNS.Add(ns)
	i := 0
	for v := ns; v > 0 && i < latBuckets-1; v >>= 1 {
		i++
	}
	h.buckets[i].Add(1)
}

// histSnap is one named histogram as read at one scrape.
type histSnap struct {
	name    string
	buckets [latBuckets]uint64
	count   uint64
	sumNS   uint64
}

// snapshot reads the histogram under a name. count is the bucket sum:
// the atomics are read individually (no global lock), so deriving the
// count from the very buckets being exposed keeps a scrape racing an
// observe internally consistent (+Inf == _count, buckets monotone).
func (h *latHist) snapshot(name string) histSnap {
	hs := histSnap{name: name}
	for i := range hs.buckets {
		hs.buckets[i] = h.buckets[i].Load()
		hs.count += hs.buckets[i]
	}
	hs.sumNS = h.sumNS.Load()
	return hs
}

// plus returns the two snapshots' observations as one histogram.
func (h histSnap) plus(o histSnap) histSnap {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sumNS += o.sumNS
	return h
}

func (h histSnap) summary() LatencySummary {
	ls := LatencySummary{Count: h.count}
	if h.count == 0 {
		return ls
	}
	ls.MeanUS = float64(h.sumNS) / float64(h.count) / 1e3
	quantile := func(q float64) float64 {
		rank := uint64(q * float64(h.count))
		var cum uint64
		for i, c := range h.buckets {
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
