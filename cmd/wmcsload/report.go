package main

import (
	"fmt"
	"sort"
	"time"

	"wmcs/internal/detorder"
	"wmcs/internal/obs"
	"wmcs/internal/stats"
)

// This file is wmcsload's run report: one document, built once from the
// run just issued plus the /metricsz deltas around it, printed as JSON
// by -json and rendered as the human table otherwise. Its headline
// derived figure is the queue-wait share, which divides the run's
// growth of wmcs_stage_duration_seconds_sum{stage="queue_wait"} by the
// growth of wmcs_request_duration_seconds_sum summed over mechanisms:
// the fraction of total service time spent waiting for a compute slot.

// mechReport is one mechanism's row of the report.
type mechReport struct {
	Queries   int     `json:"queries"`
	Hits      int     `json:"hits"`
	Misses    int     `json:"misses"`
	Coalesced int     `json:"coalesced"`
	P50MS     float64 `json:"p50_ms"`
	P90MS     float64 `json:"p90_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
}

// stageReport is one pipeline stage's /metricsz delta over the run.
type stageReport struct {
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// runReportDoc is the run report.
type runReportDoc struct {
	Workload  string  `json:"workload"`
	Queries   int     `json:"queries"`
	Parallel  int     `json:"parallel"`
	Hot       int     `json:"hot"`
	Zipf      float64 `json:"zipf"`
	Seed      int64   `json:"seed"`
	Networks  int     `json:"networks"`
	Churn     bool    `json:"churn"`
	Timestamp string  `json:"timestamp"`

	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputQPS float64 `json:"throughput_qps"`
	Errors        int     `json:"errors"`
	FirstError    string  `json:"first_error,omitempty"`

	// Server-side deltas over the run (from /metricsz).
	ServerQueries uint64  `json:"server_queries"`
	CacheHits     uint64  `json:"cache_hits"`
	HitRate       float64 `json:"hit_rate"`
	Coalesced     uint64  `json:"coalesced"`
	Evaluations   uint64  `json:"evaluations"`
	Updates       uint64  `json:"updates"`
	UpdateOps     uint64  `json:"update_ops"`
	// RebuildMS lists, ascending, the rebuild latencies the -churn
	// updater's PATCH replies reported.
	RebuildMS []float64 `json:"rebuild_ms,omitempty"`

	// Verification outcome: Compared counts the 200 responses checked,
	// Distinct the first responses per (network, version, canonical
	// request) verified against cold evaluations.
	Distinct   int `json:"distinct_queries"`
	Compared   int `json:"compared"`
	Mismatches int `json:"mismatches"`
	Repinned   int `json:"repinned"`

	PerMech map[string]mechReport `json:"per_mech"`

	// Per-stage /metricsz deltas and the headline queue-wait share. A
	// negative share never happens (counters are monotone); -1 flags
	// that the denominator did not move.
	Stages         map[string]stageReport `json:"stages"`
	QueueWaitShare float64                `json:"queue_wait_share"`
}

// scrapeMetrics fetches and parses /metricsz, and — since the parser is
// strict and the checker cheap — certifies the exposition's structure
// as a side effect: every run is also a live /metricsz validation.
func scrapeMetrics(baseURL string) (*obs.PromDoc, error) {
	resp, err := httpClient.Get(baseURL + "/metricsz")
	if err != nil {
		return nil, fmt.Errorf("scraping /metricsz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("scraping /metricsz: status %d", resp.StatusCode)
	}
	doc, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metricsz: %w", err)
	}
	if err := doc.CheckHistograms(); err != nil {
		return nil, fmt.Errorf("/metricsz histograms: %w", err)
	}
	return doc, nil
}

// fill completes the document from the run and the /metricsz scrapes
// taken before and after it; the caller has set the run's parameters.
func (d *runReportDoc) fill(run loadResult, before, after *obs.PromDoc) {
	grew := func(name string) uint64 {
		b, _ := before.Get(name, nil)
		a, _ := after.Get(name, nil)
		return uint64(a - b)
	}
	d.Timestamp = time.Now().UTC().Format(time.RFC3339)
	d.WallSeconds = run.wall.Seconds()
	d.Errors, d.FirstError = run.errors, run.firstError
	if run.wall > 0 {
		d.ThroughputQPS = float64(d.Queries-run.errors) / run.wall.Seconds()
	}
	d.ServerQueries = grew("wmcs_requests_total")
	d.CacheHits = grew("wmcs_cache_hits_total")
	d.Coalesced = grew("wmcs_coalesced_total")
	d.Evaluations = grew("wmcs_evaluations_total")
	d.Updates = grew("wmcs_updates_total")
	d.UpdateOps = grew("wmcs_update_ops_total")
	if d.ServerQueries > 0 {
		d.HitRate = float64(d.CacheHits) / float64(d.ServerQueries)
	}
	sort.Float64s(d.RebuildMS)
	d.Distinct, d.Compared = len(run.firsts), run.compared
	d.Mismatches, d.Repinned = run.mismatches, run.repinned

	d.PerMech = make(map[string]mechReport, len(run.perMech))
	for name, ms := range run.perMech {
		if ms.count == 0 {
			continue
		}
		lat := ms.latMS
		sort.Float64s(lat)
		var sum float64
		for _, v := range lat {
			sum += v
		}
		d.PerMech[name] = mechReport{
			Queries:   ms.count,
			Hits:      ms.hits,
			Misses:    ms.misses,
			Coalesced: ms.coales,
			P50MS:     stats.Quantile(lat, 0.50),
			P90MS:     stats.Quantile(lat, 0.90),
			P99MS:     stats.Quantile(lat, 0.99),
			MeanMS:    sum / float64(len(lat)),
		}
	}
	d.Stages = make(map[string]stageReport, int(obs.NumStages))
	for _, stage := range obs.StageNames() {
		match := map[string]string{"stage": stage}
		cb, _ := before.Get("wmcs_stage_duration_seconds_count", match)
		ca, _ := after.Get("wmcs_stage_duration_seconds_count", match)
		sb, _ := before.Get("wmcs_stage_duration_seconds_sum", match)
		sa, _ := after.Get("wmcs_stage_duration_seconds_sum", match)
		d.Stages[stage] = stageReport{Count: uint64(ca - cb), Seconds: sa - sb}
	}
	// Denominator: total service time across every mechanism series.
	d.QueueWaitShare = -1
	reqDelta := after.Sum("wmcs_request_duration_seconds_sum", nil) -
		before.Sum("wmcs_request_duration_seconds_sum", nil)
	if reqDelta > 0 {
		d.QueueWaitShare = d.Stages["queue_wait"].Seconds / reqDelta
	}
}

// table renders the document as the human report.
func (d *runReportDoc) table() *stats.Table {
	tab := stats.NewTable(
		fmt.Sprintf("wmcsload: %s workload, %d queries, %d workers (seed %d)",
			d.Workload, d.Queries, d.Parallel, d.Seed),
		"mechanism", "queries", "hit", "miss", "coalesced", "p50 ms", "p90 ms", "p99 ms")
	for _, n := range detorder.Keys(d.PerMech) {
		m := d.PerMech[n]
		tab.Add(n, fmt.Sprint(m.Queries), fmt.Sprint(m.Hits), fmt.Sprint(m.Misses), fmt.Sprint(m.Coalesced),
			fmt.Sprintf("%.3f", m.P50MS), fmt.Sprintf("%.3f", m.P90MS), fmt.Sprintf("%.3f", m.P99MS))
	}
	tab.Note("mix: %d networks, hot pool %d/network, zipf s=%g", d.Networks, d.Hot, d.Zipf)
	tab.Note("wall %.2fs   throughput %.0f q/s   errors %d", d.WallSeconds, d.ThroughputQPS, d.Errors)
	tab.Note("server: %d queries, %d cache hits (hit rate %.1f%%), %d coalesced, %d evaluations",
		d.ServerQueries, d.CacheHits, 100*d.HitRate, d.Coalesced, d.Evaluations)
	if d.Churn {
		rebuild := "-"
		if n := len(d.RebuildMS); n > 0 {
			rebuild = fmt.Sprintf("p50 %.3f ms, max %.3f ms", d.RebuildMS[n/2], d.RebuildMS[n-1])
		}
		tab.Note("server: %d updates applied (%d ops), evaluator rebuild %s; generation-bumped in place, no evict/re-register",
			d.Updates, d.UpdateOps, rebuild)
	}
	tab.Note("verification: %d responses checked, %d distinct against cold width-1 evaluations of their version, %d byte mismatches",
		d.Compared, d.Distinct, d.Mismatches)
	if d.Repinned > 0 {
		tab.Note("re-pinned %d queries whose hash-pinned mechanism the target network does not support", d.Repinned)
	}
	if d.FirstError != "" {
		tab.Note("first error: %s", d.FirstError)
	}
	return tab
}
