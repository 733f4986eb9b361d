package serve

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wmcs/internal/obs"
)

// evalReqFor builds the canonical test query against "uni" (10
// stations, source 0).
func evalReqFor(mech string, seed int64) EvalRequest {
	return EvalRequest{Network: "uni", Mech: mech, Profile: profileFor(10, 0, seed)}
}

// tracedEnvelope mirrors the ?trace=1 wire form for decoding.
type tracedEnvelope struct {
	Trace    obs.Snapshot    `json:"trace"`
	Response json.RawMessage `json:"response"`
}

// lockedWriter serializes a slog handler's writes into a builder the
// test can read back safely.
type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func newLockedTextLogger(b *strings.Builder, mu *sync.Mutex) *slog.Logger {
	return slog.New(slog.NewTextHandler(&lockedWriter{mu: mu, b: b}, nil))
}

// TestMetricszExposition: the exposition parses strictly, its
// histograms are structurally valid (monotone buckets, +Inf == _count,
// _sum present), and its figures are the ones a known mix of traffic
// implies.
func TestMetricszExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	// A mix: distinct queries (misses), a repeat (hit), and an error.
	for i := int64(0); i < 4; i++ {
		if w := do(t, s, "POST", "/v1/evaluate", evalReqFor("universal-shapley", i)); w.Code != 200 {
			t.Fatalf("evaluate %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	do(t, s, "POST", "/v1/evaluate", evalReqFor("universal-shapley", 0)) // hit
	do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "nope", Mech: "universal-shapley"})

	w := do(t, s, "GET", "/metricsz", nil)
	if w.Code != 200 {
		t.Fatalf("/metricsz: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	doc, err := obs.ParseProm(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, w.Body.String())
	}
	if err := doc.CheckHistograms(); err != nil {
		t.Fatalf("histogram structure: %v", err)
	}

	// Families carry the right types.
	for name, typ := range map[string]string{
		"wmcs_requests_total":            "counter",
		"wmcs_cache_hits_total":          "counter",
		"wmcs_in_flight_requests":        "gauge",
		"wmcs_network_version":           "gauge",
		"wmcs_request_duration_seconds":  "histogram",
		"wmcs_stage_duration_seconds":    "histogram",
		"wmcs_rebuild_duration_seconds":  "histogram",
		"wmcs_uptime_seconds":            "gauge",
		"wmcs_slow_requests_total":       "counter",
		"wmcs_network_cache_bytes":       "gauge",
		"wmcs_gc_pause_ns_total":         "counter",
		"wmcs_evaluations_total":         "counter",
		"wmcs_delta_rebuilt_mechs_total": "counter",
	} {
		f, ok := doc.Families[name]
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		if f.Type != typ {
			t.Fatalf("family %s: type %q, want %q", name, f.Type, typ)
		}
	}

	// The figures the traffic above implies: four misses, one hit, one
	// 404 that never reached admission.
	for _, c := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"wmcs_requests_total", nil, 5},
		{"wmcs_errors_total", nil, 1},
		{"wmcs_cache_hits_total", nil, 1},
		{"wmcs_cache_misses_total", nil, 4},
		{"wmcs_evaluations_total", nil, 4},
		{"wmcs_networks", nil, 2},
		{"wmcs_in_flight_requests", nil, 0},
		{"wmcs_request_duration_seconds_count", map[string]string{"mech": "universal-shapley"}, 5},
	} {
		if got, ok := doc.Get(c.name, c.match); !ok || got != c.want {
			t.Fatalf("%s%v = %v (ok=%v), want %v", c.name, c.match, got, ok, c.want)
		}
	}
	// Per-network gauges exist for both hosted networks at version 0.
	for _, nw := range []string{"uni", "line"} {
		if v, ok := doc.Get("wmcs_network_version", map[string]string{"network": nw}); !ok || v != 0 {
			t.Fatalf("network_version{%s} = %v (ok=%v)", nw, v, ok)
		}
		if _, ok := doc.Get("wmcs_network_cache_entries", map[string]string{"network": nw}); !ok {
			t.Fatalf("network_cache_entries{%s} missing", nw)
		}
	}
	// The stage label set is complete even for stages that never ran.
	for _, stage := range obs.StageNames() {
		if _, ok := doc.Get("wmcs_stage_duration_seconds_count", map[string]string{"stage": stage}); !ok {
			t.Fatalf("stage series %q missing", stage)
		}
	}
}

// TestTracingChangesNoBodyBytes is the differential test pinning the
// tentpole invariant: tracing never alters response bodies. Two
// identically-seeded servers answer the same cold queries — one plain,
// one with ?trace=1 — and the envelope's Response bytes must equal the
// plain body exactly; a plain request on the traced server must also be
// byte-identical (tracing machinery on the path changes nothing even
// when the envelope is not requested).
func TestTracingChangesNoBodyBytes(t *testing.T) {
	plain := newTestServer(t, Options{})
	traced := newTestServer(t, Options{})
	for _, mech := range []string{"universal-shapley", "jv-moat", "wireless-bb"} {
		for i := int64(0); i < 2; i++ {
			req := evalReqFor(mech, 100+i)
			wp := do(t, plain, "POST", "/v1/evaluate", req)
			wt := do(t, traced, "POST", "/v1/evaluate?trace=1", req)
			if wp.Code != 200 || wt.Code != 200 {
				t.Fatalf("%s/%d: plain %d traced %d: %s", mech, i, wp.Code, wt.Code, wt.Body.String())
			}
			if wt.Header().Get("X-Wmcs-Trace") == "" {
				t.Fatal("traced response missing X-Wmcs-Trace")
			}
			var env tracedEnvelope
			if err := json.Unmarshal(wt.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope: %v", err)
			}
			if string(env.Response) != wp.Body.String() {
				t.Fatalf("%s/%d: traced envelope body differs from plain body\nplain:  %s\ntraced: %s",
					mech, i, wp.Body.String(), env.Response)
			}
			if env.Trace.ID == "" || len(env.Trace.Spans) == 0 {
				t.Fatalf("envelope trace empty: %+v", env.Trace)
			}
			// And an untraced request on the traced server: same bytes.
			wu := do(t, traced, "POST", "/v1/evaluate", req)
			if wu.Body.String() != wp.Body.String() {
				t.Fatalf("%s/%d: untraced body on traced server differs", mech, i)
			}
		}
	}
	// Batch differential: same elements, plain vs ?trace=1 envelope.
	reqs := []EvalRequest{evalReqFor("universal-shapley", 200), evalReqFor("jv-moat", 201)}
	wp := do(t, plain, "POST", "/v1/batch", reqs)
	wt := do(t, traced, "POST", "/v1/batch?trace=1", reqs)
	if wp.Code != 200 || wt.Code != 200 {
		t.Fatalf("batch: plain %d traced %d", wp.Code, wt.Code)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(wt.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if string(env.Response) != wp.Body.String() {
		t.Fatalf("batch envelope body differs\nplain:  %s\ntraced: %s", wp.Body.String(), env.Response)
	}
}

// TestTraceSpanCoverage: on a cold computed request, the span union
// must cover >= 95% of the trace's wall time — the acceptance contract
// that keeps the breakdown honest (no large untracked gaps).
func TestTraceSpanCoverage(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(t, s, "POST", "/v1/evaluate?trace=1", evalReqFor("wireless-bb", 999))
	if w.Code != 200 {
		t.Fatalf("evaluate: %d %s", w.Code, w.Body.String())
	}
	var env tracedEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Trace.Source != "computed" {
		t.Fatalf("expected a cold computed request, got source %q", env.Trace.Source)
	}
	if env.Trace.TotalUS <= 0 {
		t.Fatalf("total %v", env.Trace.TotalUS)
	}
	if cov := env.Trace.CoveredUS / env.Trace.TotalUS; cov < 0.95 {
		t.Fatalf("span coverage %.1f%% < 95%% (total %.0fus, covered %.0fus; spans %+v)",
			100*cov, env.Trace.TotalUS, env.Trace.CoveredUS, env.Trace.Spans)
	}
	// The computed path must show the deep pipeline stages.
	seen := map[string]bool{}
	for _, sp := range env.Trace.Spans {
		seen[sp.Stage] = true
	}
	for _, want := range []string{"admission", "canonicalize", "cache_lookup", "queue_wait", "evaluate", "compute", "encode"} {
		if !seen[want] {
			t.Fatalf("computed trace missing stage %q: %+v", want, env.Trace.Spans)
		}
	}
}

// TestDebugzSlowRing: every retired trace is offered to the ring, so
// after a handful of requests /debugz/slow lists them slowest-first
// with IDs and spans; a PATCH trace appears with its update stages.
func TestDebugzSlowRing(t *testing.T) {
	s := newTestServer(t, Options{})
	for i := int64(0); i < 3; i++ {
		if w := do(t, s, "POST", "/v1/evaluate", evalReqFor("universal-shapley", 300+i)); w.Code != 200 {
			t.Fatalf("evaluate: %d", w.Code)
		}
	}
	entry, ok := s.reg.Get("uni")
	if !ok {
		t.Fatal("uni not registered")
	}
	pw := do(t, s, "PATCH", "/v1/networks/uni", updateFor(entry.Net, 1))
	if pw.Code != 200 {
		t.Fatalf("PATCH: %d %s", pw.Code, pw.Body.String())
	}
	if pw.Header().Get("X-Wmcs-Trace") == "" {
		t.Fatal("PATCH response missing X-Wmcs-Trace")
	}
	w := do(t, s, "GET", "/debugz/slow", nil)
	if w.Code != 200 {
		t.Fatalf("/debugz/slow: %d", w.Code)
	}
	var out struct {
		Slowest []obs.Snapshot `json:"slowest"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slowest) < 4 {
		t.Fatalf("ring holds %d traces, want >= 4", len(out.Slowest))
	}
	for i := 1; i < len(out.Slowest); i++ {
		if out.Slowest[i].TotalUS > out.Slowest[i-1].TotalUS {
			t.Fatalf("ring not sorted slowest-first at %d: %v > %v", i, out.Slowest[i].TotalUS, out.Slowest[i-1].TotalUS)
		}
	}
	var update *obs.Snapshot
	for i := range out.Slowest {
		if out.Slowest[i].Op == "update" {
			update = &out.Slowest[i]
		}
	}
	if update == nil {
		t.Fatal("no update trace retained")
	}
	if update.ID != pw.Header().Get("X-Wmcs-Trace") {
		t.Fatalf("update trace ID %q != PATCH header %q", update.ID, pw.Header().Get("X-Wmcs-Trace"))
	}
	seen := map[string]bool{}
	for _, sp := range update.Spans {
		seen[sp.Stage] = true
	}
	for _, want := range []string{"admission", "rebuild", "purge"} {
		if !seen[want] {
			t.Fatalf("update trace missing stage %q: %+v", want, update.Spans)
		}
	}
	if update.Version == 0 {
		t.Fatalf("update trace version = 0, want the post-PATCH version")
	}
}

// TestInFlightDrainsOnErrorPaths hammers every rejection path
// concurrently — malformed JSON (400), unknown network (404), unknown
// mechanism, domain mismatch (422), oversized batch (413) —
// interleaved with successes, then requires the InFlight gauge to read
// exactly zero: every handler exit path must hit the deferred
// TrackInFlight decrement.
func TestInFlightDrainsOnErrorPaths(t *testing.T) {
	s := newTestServer(t, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 6 {
				case 0: // malformed JSON body
					req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader("{nope"))
					s.ServeHTTP(httptest.NewRecorder(), req)
				case 1:
					do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "ghost", Mech: "universal-shapley"})
				case 2:
					do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "no-such-mech", Profile: profileFor(10, 0, 1)})
				case 3: // line-shapley's domain excludes the 2-d "uni" network
					do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "line-shapley", Profile: profileFor(10, 0, 1)})
				case 4: // oversized batch
					reqs := make([]EvalRequest, maxBatchRequest+1)
					for j := range reqs {
						reqs[j] = evalReqFor("universal-shapley", int64(j))
					}
					do(t, s, "POST", "/v1/batch", reqs)
				case 5: // a success keeps the happy path in the mix
					do(t, s, "POST", "/v1/evaluate", evalReqFor("universal-shapley", int64(i%3)))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.stats.InFlight.Load(); got != 0 {
		t.Fatalf("InFlight = %d after hammering error paths, want 0", got)
	}
	// /statsz agrees it drained.
	var st statszPayload
	if err := json.Unmarshal(do(t, s, "GET", "/statsz", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 {
		t.Fatalf("statsz in_flight = %d, want 0", st.InFlight)
	}
}

// TestSlowRequestClassification: with a 1ns threshold every OK request
// is slow (counted and logged, with the per-stage split); with the
// threshold disabled none are.
func TestSlowRequestClassification(t *testing.T) {
	var logBuf strings.Builder
	var mu sync.Mutex
	s := newTestServer(t, Options{
		SlowRequest: 1, // every OK request qualifies
		Logger:      newLockedTextLogger(&logBuf, &mu),
	})
	if w := do(t, s, "POST", "/v1/evaluate", evalReqFor("universal-shapley", 7)); w.Code != 200 {
		t.Fatalf("evaluate: %d", w.Code)
	}
	if got := s.stats.SlowRequests.Load(); got != 1 {
		t.Fatalf("SlowRequests = %d, want 1", got)
	}
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow=true") || !strings.Contains(logged, "mech=universal-shapley") {
		t.Fatalf("slow request not logged with schema fields: %q", logged)
	}
	if !strings.Contains(logged, "stages.") {
		t.Fatalf("request log missing per-stage split: %q", logged)
	}

	off := newTestServer(t, Options{SlowRequest: -1})
	do(t, off, "POST", "/v1/evaluate", evalReqFor("universal-shapley", 7))
	if got := off.stats.SlowRequests.Load(); got != 0 {
		t.Fatalf("disabled threshold still counted %d slow", got)
	}
}

// TestErrorRequestLogged: non-2xx requests emit one summary record even
// below the slow threshold.
func TestErrorRequestLogged(t *testing.T) {
	var logBuf strings.Builder
	var mu sync.Mutex
	s := newTestServer(t, Options{Logger: newLockedTextLogger(&logBuf, &mu)})
	do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "ghost", Mech: "universal-shapley"})
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "status=404") || !strings.Contains(logged, "network=ghost") {
		t.Fatalf("404 not logged: %q", logged)
	}
	if !strings.Contains(logged, "trace=") {
		t.Fatalf("log record missing trace ID: %q", logged)
	}
}

// BenchmarkStatsObserveKnown pins the satellite claim: Observe on a
// pre-registered mechanism name takes no lock and allocates nothing.
func BenchmarkStatsObserveKnown(b *testing.B) {
	s := NewStats()
	name := "universal-shapley" // registry name, pre-registered
	if _, ok := s.known[name]; !ok {
		b.Fatalf("%s not pre-registered", name)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Observe(name, 123*time.Microsecond)
		}
	})
}
