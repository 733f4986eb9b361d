package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"wmcs/internal/obs"
	"wmcs/internal/stats"
)

// This file is wmcsload's -report output: a machine-readable JSON run
// report for trend lines and CI assertions, complementing the human
// table on stdout. Everything in it is computed from the run the driver
// just issued plus /statsz and /metricsz deltas around it — notably the
// queue-wait share, which divides the run's growth of
// wmcs_stage_duration_seconds_sum{stage="queue_wait"} by the growth of
// wmcs_request_duration_seconds_sum summed over mechanisms: the
// fraction of total service time spent waiting for a compute slot.

// mechReport is one mechanism's row of the JSON report.
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

// runReportDoc is the -report JSON document.
type runReportDoc struct {
	Workload  string `json:"workload"`
	Queries   int    `json:"queries"`
	Parallel  int    `json:"parallel"`
	Seed      int64  `json:"seed"`
	Networks  int    `json:"networks"`
	Churn     bool   `json:"churn"`
	Timestamp string `json:"timestamp"`

	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputQPS float64 `json:"throughput_qps"`
	Errors        int     `json:"errors"`
	FirstError    string  `json:"first_error,omitempty"`

	// Server-side deltas over the run (from /statsz).
	ServerQueries uint64  `json:"server_queries"`
	CacheHits     uint64  `json:"cache_hits"`
	HitRate       float64 `json:"hit_rate"`
	Coalesced     uint64  `json:"coalesced"`

	// Byte-identity verification outcome.
	Distinct   int `json:"distinct_queries"`
	Compared   int `json:"compared"`
	Mismatches int `json:"mismatches"`
	Repinned   int `json:"repinned"`

	PerMech map[string]mechReport `json:"per_mech"`

	// Per-stage /metricsz deltas and the headline queue-wait share. A
	// negative share never happens (counters are monotone); -1 flags
	// that /metricsz was unavailable or the denominator did not move.
	Stages         map[string]stageReport `json:"stages,omitempty"`
	QueueWaitShare float64                `json:"queue_wait_share"`
}

// scrapeMetrics fetches and parses /metricsz, and — since the parser is
// strict and the checker cheap — certifies the exposition's structure
// as a side effect: every -report run is also a live /metricsz
// validation.
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

// buildRunReport assembles the JSON document. mBefore/mAfter may be nil
// (daemon without /metricsz); the stage block is then omitted and the
// queue-wait share reported as -1.
func buildRunReport(run loadResult, meta reportMeta, before, after statszDoc, mBefore, mAfter *obs.PromDoc) runReportDoc {
	doc := runReportDoc{
		Workload:  meta.workload,
		Queries:   meta.queries,
		Parallel:  meta.parallel,
		Seed:      meta.seed,
		Networks:  meta.nets,
		Churn:     meta.churn != nil,
		Timestamp: time.Now().UTC().Format(time.RFC3339),

		WallSeconds: run.wall.Seconds(),
		Errors:      run.errors,
		FirstError:  run.firstError,

		ServerQueries: after.Queries - before.Queries,
		CacheHits:     after.Cache.Hits - before.Cache.Hits,
		Coalesced:     after.Coalesced - before.Coalesced,

		Distinct:   run.distinct,
		Compared:   run.compared,
		Mismatches: run.mismatches,
		Repinned:   run.repinned,

		PerMech:        make(map[string]mechReport, len(run.perMech)),
		QueueWaitShare: -1,
	}
	if served := meta.queries - run.errors; run.wall > 0 {
		doc.ThroughputQPS = float64(served) / run.wall.Seconds()
	}
	if doc.ServerQueries > 0 {
		doc.HitRate = float64(doc.CacheHits) / float64(doc.ServerQueries)
	}
	for name, ms := range run.perMech {
		if ms.count == 0 {
			continue
		}
		lat := append([]float64(nil), ms.latMS...)
		sort.Float64s(lat)
		var sum float64
		for _, v := range lat {
			sum += v
		}
		doc.PerMech[name] = mechReport{
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
	if mBefore == nil || mAfter == nil {
		return doc
	}
	doc.Stages = make(map[string]stageReport, int(obs.NumStages))
	for _, stage := range obs.StageNames() {
		match := map[string]string{"stage": stage}
		cb, _ := mBefore.Get("wmcs_stage_duration_seconds_count", match)
		ca, _ := mAfter.Get("wmcs_stage_duration_seconds_count", match)
		sb, _ := mBefore.Get("wmcs_stage_duration_seconds_sum", match)
		sa, _ := mAfter.Get("wmcs_stage_duration_seconds_sum", match)
		doc.Stages[stage] = stageReport{Count: uint64(ca - cb), Seconds: sa - sb}
	}
	// Denominator: total service time across every mechanism series.
	reqDelta := mAfter.Sum("wmcs_request_duration_seconds_sum", nil) -
		mBefore.Sum("wmcs_request_duration_seconds_sum", nil)
	if reqDelta > 0 {
		doc.QueueWaitShare = doc.Stages["queue_wait"].Seconds / reqDelta
	}
	return doc
}

// writeRunReport renders the document to path (indented, trailing
// newline — diff- and jq-friendly).
func writeRunReport(path string, doc runReportDoc) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
