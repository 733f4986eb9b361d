package serve

import (
	"net/http"

	"wmcs/internal/obs"
)

// handleMetricsz serves GET /metricsz: one reading (readStats) rendered
// as Prometheus text exposition (DESIGN.md §13.3) — the figures /statsz
// shows plus those only this endpoint carries. Latency histograms
// re-expose the serve layer's log2 nanosecond buckets as cumulative
// `le` histograms via obs.PromWriter.Log2Histogram — an exact mapping,
// so any quantile read from the exposition inherits the documented
// 2×-bound contract. Per-network gauges (version, generation, cached
// entries and bytes) carry a "network" label; series order is
// deterministic (sorted names, fixed stage order) so two scrapes diff
// cleanly.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := s.readStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	p.Counter("wmcs_requests_total", "Evaluate requests admitted (batch elements included).", st.Queries)
	p.Counter("wmcs_coalesced_total", "Requests served by riding on a concurrent identical computation.", st.Coalesced)
	p.Counter("wmcs_errors_total", "Requests rejected or failed.", st.Errors)
	p.Counter("wmcs_slow_requests_total", "OK responses at or above the slow-request threshold.", st.slow)
	p.Counter("wmcs_evaluations_total", "Cache misses evaluated on a compute slot.", st.BatchedQueries)
	p.Counter("wmcs_updates_total", "Applied network deltas (version bumps).", st.Updates)
	p.Counter("wmcs_update_ops_total", "Mutation ops carried by applied deltas.", st.UpdateOps)
	p.Counter("wmcs_delta_rebuilt_mechs_total", "Mechanisms warmed by incremental delta rebuilds.", st.DeltaRebuiltMechs)

	p.Counter("wmcs_cache_hits_total", "Result cache hits.", st.Cache.Hits)
	p.Counter("wmcs_cache_misses_total", "Result cache misses.", st.Cache.Misses)
	p.Counter("wmcs_cache_evictions_total", "Result cache LRU evictions.", st.Cache.Evicted)
	p.Gauge("wmcs_cache_entries", "Result cache entries resident.", float64(st.Cache.Len))
	p.Gauge("wmcs_cache_capacity_entries", "Result cache capacity in entries.", float64(st.Cache.Capacity))

	p.Gauge("wmcs_in_flight_requests", "Requests currently inside an evaluate or batch handler.", float64(st.InFlight))
	p.Gauge("wmcs_parallel_eval_width", "Configured evaluation width (spider-oracle scans and compute slots).", float64(st.ParallelEval))
	p.Gauge("wmcs_networks", "Hosted networks.", float64(st.Networks))

	// Per-network gauges: version and generation identify the lifecycle
	// state serving the network's bytes (the "regGen.version" cache
	// generation of /statsz, split into its two halves); the cache pair
	// sizes its resident share of the result cache.
	p.Header("wmcs_network_version", "Per-network lifecycle version (0 as registered, +1 per applied mutation op).", "gauge")
	for _, n := range st.nets {
		p.SampleUint("wmcs_network_version", []obs.Label{{Key: "network", Value: n.name}}, n.version)
	}
	p.Header("wmcs_network_generation", "Per-network registration generation (bumps on evict/re-register, not on updates).", "gauge")
	for _, n := range st.nets {
		p.SampleUint("wmcs_network_generation", []obs.Label{{Key: "network", Value: n.name}}, n.gen)
	}
	p.Header("wmcs_network_cache_entries", "Result cache entries resident for the network.", "gauge")
	p.Header("wmcs_network_cache_bytes", "Result cache bytes resident for the network.", "gauge")
	for _, n := range st.nets {
		p.SampleUint("wmcs_network_cache_entries", []obs.Label{{Key: "network", Value: n.name}}, uint64(n.cacheEntries))
		p.SampleUint("wmcs_network_cache_bytes", []obs.Label{{Key: "network", Value: n.name}}, uint64(n.cacheBytes))
	}

	p.Header("wmcs_request_duration_seconds", "Service latency by mechanism (admission to response, cache hits included); log2 buckets, quantiles within 2x.", "histogram")
	for _, h := range st.mechs {
		p.Log2Histogram("wmcs_request_duration_seconds", []obs.Label{{Key: "mech", Value: h.name}}, h.buckets[:], h.count, h.sumNS)
	}
	p.Header("wmcs_stage_duration_seconds", "Request time by pipeline stage, from finished traces; log2 buckets.", "histogram")
	for _, h := range st.stages {
		p.Log2Histogram("wmcs_stage_duration_seconds", []obs.Label{{Key: "stage", Value: h.name}}, h.buckets[:], h.count, h.sumNS)
	}
	p.Header("wmcs_rebuild_duration_seconds", "PATCH evaluator rebuild+warm+swap latency by rebuild path; log2 buckets.", "histogram")
	for _, h := range st.rebuilds {
		p.Log2Histogram("wmcs_rebuild_duration_seconds", []obs.Label{{Key: "path", Value: h.name}}, h.buckets[:], h.count, h.sumNS)
	}

	p.Gauge("wmcs_goroutines", "Live goroutines.", float64(st.Runtime.Goroutines))
	p.Gauge("wmcs_heap_inuse_bytes", "Bytes in in-use heap spans.", float64(st.Runtime.HeapInuse))
	p.Counter("wmcs_gc_pause_ns_total", "Cumulative GC pause, nanoseconds.", st.Runtime.GCPauseTotalNS)
	p.Gauge("wmcs_uptime_seconds", "Seconds since the server was constructed.", st.uptime.Seconds())
	// A write error means the transport already failed mid-scrape;
	// nothing useful is left to do with it.
	_ = p.Err()
}
