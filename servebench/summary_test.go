package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRefusesFewerThanTenBeyond(t *testing.T) {
	if _, beyond, err := tail(ascending(999), 0.99); !errors.Is(err, errThinTail) {
		t.Errorf("p99 of 999 samples (%d beyond): err = %v, want a refusal", beyond, err)
	}
	v, beyond, err := tail(ascending(1000), 0.99)
	if err != nil || beyond != 10 || v != 990 {
		t.Errorf("p99 of 1000 samples = %g with %d beyond, %v; want 990 with 10 beyond", v, beyond, err)
	}
	if _, _, err := tail(ascending(99), 0.90); !errors.Is(err, errThinTail) {
		t.Errorf("p90 of 99 samples: err = %v, want a refusal", err)
	}
	if _, _, err := tail(nil, 0.5); !errors.Is(err, errThinTail) {
		t.Errorf("no samples: err = %v, want a refusal", err)
	}
}

func TestEndToEndRefusesAThinTail(t *testing.T) {
	w, err := workloadByName("cold-compute")
	if err != nil {
		t.Fatal(err)
	}
	r := passResult{setup: []time.Duration{time.Second}, wall: time.Second}
	for i := 0; i < 50; i++ {
		r.reads = append(r.reads, time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		r.updates = append(r.updates, time.Millisecond)
	}
	if _, err := endToEndMetrics(w, r); !errors.Is(err, errThinTail) {
		t.Errorf("p90 of 50 reads: err = %v, want a refusal", err)
	}
}

func TestEveryTimingIsPrintedWithItsSampleCount(t *testing.T) {
	w, err := workloadByName("hot-read")
	if err != nil {
		t.Fatal(err)
	}
	r := passResult{setup: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}, wall: time.Second, heapMB: 3}
	for i := 0; i < 2000; i++ {
		r.reads = append(r.reads, time.Duration(i)*time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		r.updates = append(r.updates, time.Duration(i)*time.Microsecond)
	}
	ms, err := endToEndMetrics(w, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkComplete(ms, endToEnd); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	render(&out, ms)
	timings := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("short line %q", line)
		}
		switch fields[2] {
		case "s", "ms", "q/s":
			timings++
			if !strings.Contains(line, "(n=") {
				t.Errorf("timing without a sample count: %q", line)
			}
		}
	}
	if timings != 6 {
		t.Errorf("%d timing lines, want 6:\n%s", timings, out.String())
	}
	if !strings.Contains(out.String(), "(n=2000; p99, 20 samples beyond)") {
		t.Errorf("tail line does not name its percentile and depth:\n%s", out.String())
	}
}

func TestStageCoverageExcludesNestedStages(t *testing.T) {
	stages := map[string]float64{
		"admission": 1, "canonicalize": 0.5, "cache_lookup": 0.5, "queue_wait": 3, "evaluate": 4, "encode": 1,
		"compute": 3.9, "parallel_evaluate": 4, "rebuild": 7, "carry_forward": 1, "purge": 1,
	}
	if got := stageCoverage(stages, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("coverage = %g, want 1 (compute, parallel_evaluate and the update stages excluded)", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ascending(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestResultLine(t *testing.T) {
	line, err := resultLine(true, 3, 0, []metric{{name: "setup_s", value: 0.5, unit: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := parseResult(append([]byte("a human line\n"), line...))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["setup_s"].Value != 0.5 || res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("round trip gave %+v", res)
	}
	if _, err := resultLine(true, 1, 0, []metric{{name: "x", value: math.NaN(), unit: "s"}}); err == nil {
		t.Error("a NaN metric was accepted")
	}
}

// TestBenchmarkJSONDeclaresWhatRunsPrint keeps BENCHMARK.json and the
// metrics the runs print in step.
func TestBenchmarkJSONDeclaresWhatRunsPrint(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	// End-to-end metrics carry a bound in (0, 0.25], per-layer ones none.
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range got {
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better || (d.Bound != nil) != bounded || (bounded && !(*d.Bound > 0 && *d.Bound <= 0.25)) {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
