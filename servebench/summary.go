package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it (the bounds of
// the end-to-end metrics live there only).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of wmcsd sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "q/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"update_p90_ms", "ms", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

// metric is one measured value. samples is the number of measurements a
// timing summarizes (0 for counts and ratios); note says how.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// minBeyond is how many samples a reported tail percentile must leave
// beyond it.
const minBeyond = 10

var errThinTail = errors.New("fewer than ten samples beyond the percentile")

// tail returns the p-quantile (nearest rank) of sorted and how many
// samples lie beyond it; it refuses a percentile with fewer than
// minBeyond samples beyond.
func tail(sorted []float64, p float64) (v float64, beyond int, err error) {
	n := len(sorted)
	// The epsilon keeps p·n from rounding past an exact rank (0.99·1000).
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	beyond = n - 1 - i
	if n == 0 || beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples: %w", 100*p, n, errThinTail)
	}
	return sorted[i], beyond, nil
}

// median of xs (sorted or not); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// msSorted converts durations to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// endToEndMetrics summarizes an untraced pass.
func endToEndMetrics(w *workload, r passResult) ([]metric, error) {
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	reads := msSorted(r.reads)
	updates := msSorted(r.updates)
	readTail, beyond, err := tail(reads, w.tail)
	if err != nil {
		return nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	upd90, upBeyond, err := tail(updates, 0.90)
	if err != nil {
		return nil, fmt.Errorf("update_p90_ms: %w", err)
	}
	return []metric{
		{"setup_s", median(setup), "s", len(setup), "median of boot, registration and prefill or warm-up"},
		{"throughput_qps", float64(len(reads)) / r.wall.Seconds(), "q/s", len(reads), fmt.Sprintf("successful reads over %.3f s", r.wall.Seconds())},
		{"latency_p50_ms", median(reads), "ms", len(reads), "read round trip at the client"},
		{"latency_tail_ms", readTail, "ms", len(reads), fmt.Sprintf("p%g, %d samples beyond", 100*w.tail, beyond)},
		{"update_p50_ms", median(updates), "ms", len(updates), "PATCH round trip"},
		{"update_p90_ms", upd90, "ms", len(updates), fmt.Sprintf("p90, %d samples beyond", upBeyond)},
		{"heap_live_mb", r.heapMB, "MiB", 0, "after a forced GC at the end of the timed phase"},
	}, nil
}

// render prints one line per metric, with the sample count beside every
// timing.
func render(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-36s %14.6g %-6s", m.name, m.value, m.unit)
		switch {
		case m.samples > 0 && m.note != "":
			fmt.Fprintf(out, " (n=%d; %s)", m.samples, m.note)
		case m.samples > 0:
			fmt.Fprintf(out, " (n=%d)", m.samples)
		case m.note != "":
			fmt.Fprintf(out, " (%s)", m.note)
		}
		fmt.Fprintln(out)
	}
}

// resultLine is the last line a run prints.
func resultLine(correct bool, attempted, failed int, ms []metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		doc.Metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(doc)
}

// checkComplete fails unless ms holds exactly the declared metrics.
func checkComplete(ms []metric, defs []metricDef) error {
	have := map[string]bool{}
	for _, m := range ms {
		have[m.name] = true
	}
	var missing []string
	for _, d := range defs {
		if !have[d.name] {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || len(have) != len(defs) {
		return fmt.Errorf("metrics do not match the declared set (missing %s; %d measured, %d declared)",
			strings.Join(missing, ", "), len(have), len(defs))
	}
	return nil
}
