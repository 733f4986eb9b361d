package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/obs"
)

// newTestServer hosts two small networks ("uni", 10 stations uniform;
// "line", 8 stations on a segment) behind a fresh server.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	reg := NewRegistry()
	for _, sp := range []instances.Spec{
		{Name: "uni", Scenario: "uniform", N: 10, Alpha: 2, Seed: 1},
		{Name: "line", Scenario: "line", N: 8, Alpha: 2, Seed: 2},
	} {
		if err := reg.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg, opts)
	t.Cleanup(s.Close)
	return s
}

// do runs one request through the handler and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func profileFor(n, source int, seed int64) []float64 {
	u := make([]float64, n)
	for i := range u {
		if i != source {
			u[i] = float64((int64(i)*7+seed*13)%50) + 0.5
		}
	}
	return u
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ok" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
}

func TestListAndRegisterAndEvict(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(t, s, "GET", "/v1/networks", nil)
	var list struct {
		Networks   []networkInfo `json:"networks"`
		Mechanisms []string      `json:"mechanisms"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Networks) != 2 || list.Networks[0].Name != "uni" || list.Networks[1].Name != "line" {
		t.Fatalf("listing: %+v", list.Networks)
	}
	if len(list.Mechanisms) == 0 {
		t.Fatal("no mechanisms listed")
	}
	// Register a third network over the API, query it.
	w = do(t, s, "POST", "/v1/networks", instances.Spec{Name: "ring9", Scenario: "ring", N: 9, Seed: 5})
	if w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body.String())
	}
	// Duplicate registration conflicts.
	w = do(t, s, "POST", "/v1/networks", instances.Spec{Name: "ring9", Scenario: "ring", N: 9, Seed: 5})
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate register: %d", w.Code)
	}
	w = do(t, s, "POST", "/v1/evaluate", EvalRequest{
		Network: "ring9", Mech: "universal-shapley", Profile: profileFor(9, 0, 3),
	})
	if w.Code != http.StatusOK {
		t.Fatalf("evaluate on registered network: %d %s", w.Code, w.Body.String())
	}
	// Evict and verify it is gone and its cache entries are dropped.
	w = do(t, s, "DELETE", "/v1/networks/ring9", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("evict: %d %s", w.Code, w.Body.String())
	}
	var ev struct {
		Dropped int `json:"cache_entries_dropped"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Dropped != 1 {
		t.Fatalf("evict dropped %d cache entries, want 1", ev.Dropped)
	}
	if w = do(t, s, "DELETE", "/v1/networks/ring9", nil); w.Code != http.StatusNotFound {
		t.Fatalf("second evict: %d", w.Code)
	}
	if w = do(t, s, "POST", "/v1/evaluate", EvalRequest{
		Network: "ring9", Mech: "universal-shapley", Profile: profileFor(9, 0, 3),
	}); w.Code != http.StatusNotFound {
		t.Fatalf("evaluate on evicted network: %d", w.Code)
	}
}

func TestEvaluateHitIsByteIdentical(t *testing.T) {
	s := newTestServer(t, Options{})
	req := EvalRequest{Network: "uni", Mech: "wireless-bb", Profile: profileFor(10, 0, 7)}
	cold := do(t, s, "POST", "/v1/evaluate", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body.String())
	}
	if got := cold.Header().Get("X-Wmcs-Cache"); got != "miss" {
		t.Fatalf("cold source %q", got)
	}
	warm := do(t, s, "POST", "/v1/evaluate", req)
	if got := warm.Header().Get("X-Wmcs-Cache"); got != "hit" {
		t.Fatalf("warm source %q", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("hit differed from cold:\n%s\n%s", cold.Body.String(), warm.Body.String())
	}
	// A request that differs only under the quantization grid hits too.
	bumped := req
	bumped.Profile = append([]float64(nil), req.Profile...)
	bumped.Profile[3] += Quantum / 8
	w := do(t, s, "POST", "/v1/evaluate", bumped)
	if got := w.Header().Get("X-Wmcs-Cache"); got != "hit" {
		t.Fatalf("sub-grid request source %q, want hit", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), w.Body.Bytes()) {
		t.Fatal("sub-grid hit differed from cold")
	}
	var resp EvalResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Network != "uni" || resp.Mech != "wireless-bb" || len(resp.Receivers) == 0 {
		t.Fatalf("response: %+v", resp)
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name string
		req  EvalRequest
		code int
	}{
		{"unknown network", EvalRequest{Network: "nope", Mech: "jv-moat", Profile: []float64{0, 1}}, http.StatusNotFound},
		{"unknown mech", EvalRequest{Network: "uni", Mech: "nope", Profile: profileFor(10, 0, 1)}, http.StatusBadRequest},
		{"wrong profile length", EvalRequest{Network: "uni", Mech: "jv-moat", Profile: []float64{1}}, http.StatusBadRequest},
		{"class mismatch", EvalRequest{Network: "uni", Mech: "line-shapley", Profile: profileFor(10, 0, 1)}, http.StatusUnprocessableEntity},
		{"alpha mismatch", EvalRequest{Network: "uni", Mech: "alpha1-mc", Profile: profileFor(10, 0, 1)}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		w := do(t, s, "POST", "/v1/evaluate", c.req)
		if w.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.code, w.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error body: %s", c.name, w.Body.String())
		}
	}
	// line mechanisms do work on the line network.
	w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "line", Mech: "line-shapley", Profile: profileFor(8, 0, 1)})
	if w.Code != http.StatusOK {
		t.Fatalf("line-shapley on line: %d %s", w.Code, w.Body.String())
	}
}

// TestEvaluateCoalesces fires many concurrent identical cold queries;
// the flight group must collapse them to (nearly) one evaluation, and
// every caller must get the same bytes.
func TestEvaluateCoalesces(t *testing.T) {
	s := newTestServer(t, Options{})
	req := EvalRequest{Network: "uni", Mech: "wireless-bb", Profile: profileFor(10, 0, 21)}
	const callers = 16
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(t, s, "POST", "/v1/evaluate", req)
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if bodies[i] == nil || !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	if evals := s.Stats().Evaluations.Load(); evals >= callers/2 {
		t.Fatalf("%d evaluations for %d identical concurrent queries — coalescing broken", evals, callers)
	}
	if total := s.Stats().Queries.Load(); total != callers {
		t.Fatalf("admitted %d queries, want %d", total, callers)
	}
}

// TestBatchMatchesSingles: each /v1/batch element carries exactly the
// bytes the single endpoint returns, errors included per element.
func TestBatchMatchesSingles(t *testing.T) {
	s := newTestServer(t, Options{})
	reqs := []EvalRequest{
		{Network: "uni", Mech: "universal-shapley", Profile: profileFor(10, 0, 1)},
		{Network: "line", Mech: "line-mc", Profile: profileFor(8, 0, 2)},
		{Network: "uni", Mech: "universal-shapley", Profile: profileFor(10, 0, 1)}, // duplicate of [0]
		{Network: "nope", Mech: "jv-moat", Profile: []float64{0, 1}},               // error element
		{Network: "uni", Mech: "jv-moat", Profile: profileFor(10, 0, 3)},
	}
	w := do(t, s, "POST", "/v1/batch", reqs)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &elems); err != nil {
		t.Fatal(err)
	}
	if len(elems) != len(reqs) {
		t.Fatalf("%d elements, want %d", len(elems), len(reqs))
	}
	for i, r := range reqs {
		if r.Network == "nope" {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(elems[i], &e); err != nil || e.Error == "" {
				t.Fatalf("element %d: expected error object, got %s", i, elems[i])
			}
			continue
		}
		single := do(t, s, "POST", "/v1/evaluate", r)
		if single.Code != http.StatusOK {
			t.Fatalf("single %d: %d %s", i, single.Code, single.Body.String())
		}
		if !bytes.Equal(single.Body.Bytes(), elems[i]) {
			t.Fatalf("element %d differs from single endpoint:\n%s\n%s", i, elems[i], single.Body.Bytes())
		}
	}
	if !bytes.Equal(elems[0], elems[2]) {
		t.Fatal("duplicate batch elements differ")
	}
}

// TestRegisterInvalidSpecIs400 separates "bad spec" (400) from
// "name taken" (409). A bad spec is refused before its network is
// allocated: the registry is unchanged and the server keeps answering.
func TestRegisterInvalidSpecIs400(t *testing.T) {
	s := newTestServer(t, Options{})
	listing := do(t, s, "GET", "/v1/networks", nil).Body.String()
	for _, sp := range []instances.Spec{
		{Name: "x", Scenario: "bogus", N: 8},
		{Name: "x", Scenario: "uniform", N: 1},
		{Name: "x", Scenario: "uniform", N: 100000},
		{Name: "x", Scenario: "uniform", N: 1 << 40},
		{Name: "x", Scenario: "euclid", N: 8, Dim: -3},
		{Name: "x", Scenario: "euclid", N: 8, Dim: 9},
		{Name: "x", Scenario: "uniform", N: 8, Alpha: 0.5},
		{Name: "x", Scenario: "uniform", N: 8, Alpha: -2},
		// Finite, but every cost over distance 1 overflows to +Inf.
		{Name: "x", Scenario: "uniform", N: 8, Alpha: 1e300},
		// Names that would break key-prefix eviction or the DELETE route.
		{Name: "a\x1fb", Scenario: "uniform", N: 8},
		{Name: "a/b", Scenario: "uniform", N: 8},
		{Name: "", Scenario: "uniform", N: 8},
	} {
		if w := do(t, s, "POST", "/v1/networks", sp); w.Code != http.StatusBadRequest {
			t.Fatalf("%#v: %d %s, want 400", sp, w.Code, w.Body.String())
		}
		if got := do(t, s, "GET", "/v1/networks", nil).Body.String(); got != listing {
			t.Fatalf("%#v changed the registry:\n%s\nwant\n%s", sp, got, listing)
		}
		if w := do(t, s, "GET", "/healthz", nil); w.Code != http.StatusOK {
			t.Fatalf("healthz after %#v: %d", sp, w.Code)
		}
	}
	if w := do(t, s, "POST", "/v1/networks", instances.Spec{Name: "uni", Scenario: "uniform", N: 8, Seed: 1}); w.Code != http.StatusConflict {
		t.Fatalf("duplicate name: %d, want 409", w.Code)
	}
	if err := NewRegistry().Register("", nil); err == nil {
		t.Fatal("Register accepted an empty name")
	}
}

// TestEvictReRegisterNeverServesStaleBytes: a name re-registered with a
// different spec must answer from its own network, never from the
// predecessor's cache entries (the generation-prefix contract).
func TestEvictReRegisterNeverServesStaleBytes(t *testing.T) {
	s := newTestServer(t, Options{})
	profile := profileFor(9, 0, 5)
	register := func(seed int64) {
		w := do(t, s, "POST", "/v1/networks", instances.Spec{Name: "gen", Scenario: "uniform", N: 9, Seed: seed})
		if w.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", w.Code, w.Body.String())
		}
	}
	evaluate := func() (*httptest.ResponseRecorder, string) {
		w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "gen", Mech: "universal-shapley", Profile: profile})
		if w.Code != http.StatusOK {
			t.Fatalf("evaluate: %d %s", w.Code, w.Body.String())
		}
		return w, w.Header().Get("X-Wmcs-Cache")
	}
	register(11)
	old, _ := evaluate()
	if _, src := evaluate(); src != "hit" {
		t.Fatalf("warm-up not a hit: %s", src)
	}
	if w := do(t, s, "DELETE", "/v1/networks/gen", nil); w.Code != http.StatusOK {
		t.Fatalf("evict: %d", w.Code)
	}
	register(12) // different network under the same name
	fresh, src := evaluate()
	if src != "miss" {
		t.Fatalf("first query on re-registered network was a %q, want miss", src)
	}
	if bytes.Equal(old.Body.Bytes(), fresh.Body.Bytes()) {
		t.Fatal("re-registered network served the predecessor's bytes")
	}
	if _, src := evaluate(); src != "hit" {
		t.Fatalf("second query on re-registered network was a %q, want hit", src)
	}
}

func TestBatchSizeLimit(t *testing.T) {
	s := newTestServer(t, Options{})
	reqs := make([]EvalRequest, maxBatchRequest+1)
	for i := range reqs {
		reqs[i] = EvalRequest{Network: "uni", Mech: "jv-moat", Profile: profileFor(10, 0, int64(i))}
	}
	if w := do(t, s, "POST", "/v1/batch", reqs); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: %d", w.Code)
	}
}

func TestStatsz(t *testing.T) {
	s := newTestServer(t, Options{})
	req := EvalRequest{Network: "uni", Mech: "universal-mc", Profile: profileFor(10, 0, 4)}
	do(t, s, "POST", "/v1/evaluate", req)
	do(t, s, "POST", "/v1/evaluate", req)
	w := do(t, s, "GET", "/statsz", nil)
	var p statszPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Networks != 2 || p.Queries != 2 || p.Cache.Hits != 1 {
		t.Fatalf("statsz: %+v", p)
	}
	lat, ok := p.LatencyUS["universal-mc"]
	if !ok || lat.Count != 2 || lat.P50US <= 0 || lat.P99US < lat.P50US {
		t.Fatalf("latency summary: %+v", p.LatencyUS)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	manifest := `[
	  {"name": "m1", "scenario": "uniform", "n": 8, "alpha": 2, "seed": 1},
	  {"name": "m2", "scenario": "grid", "n": 9, "seed": 2}
	]`
	reg := NewRegistry()
	n, err := reg.LoadManifest(strings.NewReader(manifest))
	if err != nil || n != 2 {
		t.Fatalf("LoadManifest: n=%d err=%v", n, err)
	}
	if _, ok := reg.Get("m2"); !ok {
		t.Fatal("m2 not registered")
	}
	// Bad entries fail with the entry's index named.
	_, err = NewRegistry().LoadManifest(strings.NewReader(`[{"name": "x", "scenario": "nope", "n": 8, "seed": 1}]`))
	if err == nil || !strings.Contains(err.Error(), "entry 0") {
		t.Fatalf("bad manifest error: %v", err)
	}
	// Unknown fields are rejected (catches typo'd manifests at boot).
	if _, err := NewRegistry().LoadManifest(strings.NewReader(`[{"name": "x", "scenari": "uniform"}]`)); err == nil {
		t.Fatal("typo'd manifest accepted")
	}
	// A second array after the first fails the manifest instead of
	// booting with the first half of it.
	two := `[{"name": "c1", "scenario": "uniform", "n": 8, "seed": 1}] [{"name": "c2", "scenario": "uniform", "n": 8, "seed": 2}]`
	if n, err := NewRegistry().LoadManifest(strings.NewReader(two)); err == nil {
		t.Fatalf("concatenated manifest accepted with n=%d", n)
	}
}

// TestServerShutdownFailsCleanly: after Close, a cache miss answers 503
// instead of evaluating. The request repeats 64 times because a free
// compute slot and the closed quit channel are both ready, and a select
// over them picks at random — a single probe would pass half the time
// without the re-check after taking the slot.
func TestServerShutdownFailsCleanly(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Close()
	for i := 0; i < 64; i++ {
		w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "jv-moat", Profile: profileFor(10, 0, 9)})
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("post-close evaluate %d: %d %s", i, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "shutting down") {
			t.Fatalf("post-close body %d: %s", i, w.Body.String())
		}
	}
	if n := s.Stats().Evaluations.Load(); n != 0 {
		t.Fatalf("%d evaluations ran after Close", n)
	}
}

// TestComputeSlotsBound pins the admission bound: at width 2, with both
// compute slots held, a cold /v1/evaluate waits; releasing one slot lets
// it answer 200 with a queue_wait span; and with the slots held, Close
// turns a waiting miss into a 503.
func TestComputeSlotsBound(t *testing.T) {
	reg := NewRegistry()
	reg.SetParallel(2)
	if err := reg.RegisterSpec(instances.Spec{Name: "uni", Scenario: "uniform", N: 10, Alpha: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	t.Cleanup(s.Close)
	if cap(s.slots) != 2 {
		t.Fatalf("compute slots %d, want the registry's width 2", cap(s.slots))
	}
	hold := func() { s.slots <- struct{}{} }
	release := func() { <-s.slots }
	hold()
	hold()
	send := func(seed int64) <-chan *httptest.ResponseRecorder {
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			out <- do(t, s, "POST", "/v1/evaluate?trace=1",
				EvalRequest{Network: "uni", Mech: "jv-moat", Profile: profileFor(10, 0, seed)})
		}()
		return out
	}

	first := send(31)
	select {
	case w := <-first:
		t.Fatalf("cold evaluate completed with every slot held: %d %s", w.Code, w.Body.String())
	case <-time.After(100 * time.Millisecond):
	}
	if n := s.Stats().Evaluations.Load(); n != 0 {
		t.Fatalf("%d evaluations started with every slot held", n)
	}
	release()
	w := <-first
	if w.Code != http.StatusOK {
		t.Fatalf("evaluate after a slot freed: %d %s", w.Code, w.Body.String())
	}
	var env struct {
		Trace obs.Snapshot `json:"trace"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	waited := false
	for _, sp := range env.Trace.Spans {
		waited = waited || sp.Stage == obs.StageQueueWait.String()
	}
	if !waited {
		t.Fatalf("no queue_wait span in %+v", env.Trace.Spans)
	}

	// The finished leader gave its slot back; hold both again.
	hold()
	second := send(32)
	select {
	case w := <-second:
		t.Fatalf("cold evaluate completed with every slot held: %d %s", w.Code, w.Body.String())
	case <-time.After(50 * time.Millisecond):
	}
	s.Close()
	w = <-second
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("waiting evaluate after Close: %d %s, want 503", w.Code, w.Body.String())
	}
	release()
	release()
	if n := s.Stats().Evaluations.Load(); n != 1 {
		t.Fatalf("%d evaluations, want exactly the one that got a slot", n)
	}
}

// TestOutcomeSanity decodes one response and cross-checks it against
// the mechanism axioms on the canonical profile.
func TestOutcomeSanity(t *testing.T) {
	s := newTestServer(t, Options{})
	wire := profileFor(10, 0, 11)
	w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "universal-shapley", Profile: wire})
	if w.Code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", w.Code, w.Body.String())
	}
	var resp EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	o := mech.Outcome{Receivers: resp.Receivers, Shares: map[int]float64{}, Cost: resp.Cost}
	for _, sh := range resp.Shares {
		o.Shares[sh.Agent] = sh.Share
	}
	c, err := Canonicalize(EvalRequest{Network: "uni", Mech: "universal-shapley", Profile: wire}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mech.CheckAll(c.Profile, o); err != nil {
		t.Fatalf("served outcome violates axioms: %v", err)
	}
}

// TestOverflowUtilityIs400: a finite wire utility whose quantization
// overflows float64 (v/Quantum > MaxFloat64, i.e. v >= ~1.8e302) must
// be rejected at validation — before the fix it canonicalized to +Inf,
// the mechanism produced NaN shares, and encoding panicked on what was
// then a dispatcher goroutine, killing the daemon.
func TestOverflowUtilityIs400(t *testing.T) {
	s := newTestServer(t, Options{})
	p := profileFor(10, 0, 5)
	p[3] = 1e303
	w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "universal-mc", Profile: p})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("overflowing utility: %d %s, want 400", w.Code, w.Body.String())
	}
	// The daemon is still alive and serving.
	ok := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "universal-mc", Profile: profileFor(10, 0, 5)})
	if ok.Code != http.StatusOK {
		t.Fatalf("follow-up query: %d %s", ok.Code, ok.Body.String())
	}
}

// TestBatcherSurvivesEvaluationPanic injects a panic into an evaluation
// (a nil evaluator dereferences inside compute) and checks the caller
// gets errInternal and the server keeps serving: the panicking
// evaluation released its compute slot, so at width 1 a later miss
// still evaluates. The width is pinned: at the GOMAXPROCS default a
// second slot would let the later miss through even if the panic leaked
// the first.
func TestBatcherSurvivesEvaluationPanic(t *testing.T) {
	reg := NewRegistry()
	reg.SetParallel(1)
	if err := reg.RegisterSpec(instances.Spec{Name: "uni", Scenario: "uniform", N: 10, Alpha: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	t.Cleanup(s.Close)
	if cap(s.slots) != 1 {
		t.Fatalf("compute slots %d, want 1", cap(s.slots))
	}
	bad := &NetworkEntry{Name: "bad"} // nil Ev: EvaluateOne panics
	c, err := Canonicalize(EvalRequest{Network: "bad", Mech: "universal-mc", Profile: profileFor(10, 0, 9)}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.compute(bad, nil, 0, c, bad.prefixFor(0)+c.Key, nil); !errors.Is(err, errInternal) {
		t.Fatalf("panicking evaluation: err=%v, want errInternal (mapped to 500, not 422)", err)
	}
	// The server survived: a well-formed query still answers.
	w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: "uni", Mech: "universal-mc", Profile: profileFor(10, 0, 9)})
	if w.Code != http.StatusOK {
		t.Fatalf("query after panic: %d %s", w.Code, w.Body.String())
	}
}

// TestEvictMidFlightLeavesNoDeadCacheEntry: a task admitted before its
// network's eviction completes after the handler's DeletePrefix; its
// Put lands under a retired generation no request can ever form, so it
// must not stay resident (it would occupy LRU capacity forever).
func TestEvictMidFlightLeavesNoDeadCacheEntry(t *testing.T) {
	s := newTestServer(t, Options{})
	entry, ok := s.reg.Get("uni")
	if !ok {
		t.Fatal("uni not registered")
	}
	c, err := Canonicalize(EvalRequest{Network: "uni", Mech: "universal-mc", Profile: profileFor(10, 0, 13)}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Evict first (handler order: Evict, then DeletePrefix), then run
	// the already-admitted task — the worst-case interleaving, where the
	// Put happens strictly after the purge.
	s.reg.Evict("uni")
	s.cache.DeletePrefix(networkKeyPrefix("uni"))
	cur := entry.Ev.Current()
	key := entry.prefixFor(cur.Version) + c.Key
	body, err := s.compute(entry, cur.Ev, cur.Version, c, key, nil)
	if err != nil || len(body) == 0 {
		t.Fatalf("in-flight task after evict: body=%q err=%v", body, err)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("dead entry resident under retired generation")
	}
	if st := s.cache.Stats(); st.Len != 0 {
		t.Fatalf("cache holds %d entries after evict, want 0", st.Len)
	}
}

// TestTrailingDataIs400: a body holds one JSON value. Anything after it
// but whitespace answers 400 on every route that decodes a body, and the
// value before it takes no effect: no network registers and no version
// moves.
func TestTrailingDataIs400(t *testing.T) {
	s := newTestServer(t, Options{})
	eval, err := json.Marshal(EvalRequest{Network: "uni", Mech: "universal-mc", Profile: profileFor(10, 0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name string) string {
		return `{"name": "` + name + `", "scenario": "uniform", "n": 8, "alpha": 2, "seed": 1}`
	}
	entry, _ := s.reg.Get("uni")
	version := entry.Ev.Version()
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/v1/evaluate", string(eval) + " garbage"},
		{"POST", "/v1/evaluate", string(eval) + string(eval)},
		{"POST", "/v1/batch", "[" + string(eval) + "] ]"},
		{"POST", "/v1/networks", spec("x1") + " " + spec("x2")},
		{"PATCH", "/v1/networks/uni", `{"move": [{"station": 4, "point": [0.93, 0.81]}]} garbage`},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(rt.method, rt.path, strings.NewReader(rt.body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %s with trailing data: %d %s, want 400", rt.method, rt.path, w.Code, w.Body.String())
		}
	}
	if n := s.reg.Len(); n != 2 {
		t.Errorf("registry holds %d networks after rejected bodies, want 2", n)
	}
	if v := entry.Ev.Version(); v != version {
		t.Errorf("uni moved from version %d to %d on a rejected PATCH", version, v)
	}
}

// TestOversizedBodyIs413: a body past maxBodyBytes answers 413 on every
// route that decodes one, not a 400 blaming the JSON.
func TestOversizedBodyIs413(t *testing.T) {
	s := newTestServer(t, Options{})
	// One JSON string longer than the limit: the decoder must read past
	// maxBodyBytes before the value could end.
	body := []byte(`"` + strings.Repeat("a", maxBodyBytes) + `"`)
	for _, rt := range []struct{ method, path string }{
		{"POST", "/v1/evaluate"},
		{"POST", "/v1/batch"},
		{"POST", "/v1/networks"},
		{"PATCH", "/v1/networks/uni"},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a %d-byte body: %d %s, want 413", rt.method, rt.path, len(body), w.Code, w.Body.String())
		}
	}
}
