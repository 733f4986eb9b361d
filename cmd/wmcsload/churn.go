package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// Churn mode (-churn): the driver interleaves PATCH /v1/networks/{name}
// deltas — drawn from the instances churn registry — with the query
// stream, and strengthens verification from "repeat responses match the
// first seen" to "every response matches a cold evaluation of the exact
// network version the server says produced it":
//
//   - every served response carries X-Wmcs-Version; the driver keeps a
//     client-side replica per network and snapshots it at every version
//     its updater creates (replaying the same deltas it PATCHed);
//   - a response labeled version v is compared byte-for-byte against
//     EncodeOutcome of a fresh evaluator over snapshot v — so a torn
//     read, a stale cache generation, or bytes mislabeled with the
//     wrong version all surface as mismatches;
//   - responses that arrive before the updater has recorded their
//     version (the PATCH reply races the first post-swap query) are
//     parked and verified after the run.
//
// The interleaving of updates and queries is scheduling-dependent, but
// verification is version-pinned, so the mismatch count is 0 at every
// -parallel — that is the mode's invariant, asserted by CI.

// churnDriver owns the updater's state and the generation-pinned
// verifier. One per run.
type churnDriver struct {
	cfg      loadConfig
	updates  int
	churners []instances.Churner
	// completed counts query attempts; the updater paces itself on it.
	completed atomic.Int64
	// perNet[j] guards network j's version -> snapshot/evaluator maps.
	perNet []*churnNetState
	// runDone releases the updater if the query stream ends early.
	runDone chan struct{}
	done    chan struct{}

	mu        sync.Mutex
	applied   int       // PATCHes acknowledged by the server
	appliedOp int       // mutation ops they carried
	rebuildMS []float64 // server-reported rebuild latencies
	pending   []pendingVerify
	updErr    string
}

type churnNetState struct {
	mu       sync.Mutex
	live     *wireless.Network
	replicas map[uint64]*wireless.Network
	evs      map[uint64]*query.Evaluator
	expected map[string][]byte // version ␟ canon key -> cold bytes
}

type pendingVerify struct {
	net  int
	ver  uint64
	key  string
	mech string
	body []byte
}

// newChurnDriver validates the model selection against every driven
// network and freezes the version-0 replicas.
func newChurnDriver(cfg loadConfig, updates int, model string, seed int64) (*churnDriver, error) {
	d := &churnDriver{
		cfg:     cfg,
		updates: updates,
		runDone: make(chan struct{}),
		done:    make(chan struct{}),
	}
	for j, nw := range cfg.nets {
		m := instances.ChurnModelFor(nw)
		if model != "auto" {
			var err error
			if m, err = instances.ChurnByName(model); err != nil {
				return nil, err
			}
			if !m.Applies(nw) {
				return nil, fmt.Errorf("churn model %q does not apply to network %q (%s)", model, cfg.specs[j].Name, cfg.specs[j].Scenario)
			}
		}
		d.churners = append(d.churners, m.New(engine.RNG(seed, 5000+j), nw, instances.ChurnOptions{}))
		d.perNet = append(d.perNet, &churnNetState{
			live:     nw.Snapshot(),
			replicas: map[uint64]*wireless.Network{0: nw.Snapshot()},
			evs:      map[uint64]*query.Evaluator{},
			expected: map[string][]byte{},
		})
	}
	return d, nil
}

// run is the updater goroutine: space the updates evenly over the query
// stream (one PATCH per `spacing` completed queries, round-robin over
// the networks), apply each server-acknowledged delta to the matching
// replica, and snapshot the new version for the verifier.
func (d *churnDriver) run() {
	defer close(d.done)
	spacing := d.cfg.queries / (d.updates + 1)
	if spacing < 1 {
		spacing = 1
	}
	for u := 0; u < d.updates; u++ {
		if !d.waitFor(int64((u + 1) * spacing)) {
			return
		}
		j := u % len(d.cfg.nets)
		up := d.churners[j].Next()
		if up.Empty() {
			continue // e.g. battery model with every station dead
		}
		if err := d.patch(j, up); err != nil {
			d.mu.Lock()
			if d.updErr == "" {
				d.updErr = err.Error()
			}
			d.mu.Unlock()
			return
		}
	}
}

// waitFor blocks until `threshold` queries completed (or the run ended);
// it reports whether the updater should continue.
func (d *churnDriver) waitFor(threshold int64) bool {
	for d.completed.Load() < threshold {
		select {
		case <-d.runDone:
			return false
		case <-time.After(500 * time.Microsecond):
		}
	}
	return true
}

// patch sends one delta and commits it to the replica state.
func (d *churnDriver) patch(j int, up instances.Update) error {
	name := d.cfg.specs[j].Name
	b, err := json.Marshal(up)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPatch, d.cfg.baseURL+"/v1/networks/"+name, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("PATCH %s: %w", name, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PATCH %s: status %d: %s", name, resp.StatusCode, body)
	}
	var ur struct {
		Version   uint64  `json:"version"`
		Ops       int     `json:"ops"`
		RebuildUS float64 `json:"rebuild_us"`
	}
	if err := json.Unmarshal(body, &ur); err != nil {
		return fmt.Errorf("PATCH %s: %w", name, err)
	}
	st := d.perNet[j]
	st.mu.Lock()
	if err := up.Apply(st.live); err != nil {
		st.mu.Unlock()
		return fmt.Errorf("PATCH %s: replica replay failed: %w", name, err)
	}
	if got := st.live.Version(); got != ur.Version {
		st.mu.Unlock()
		return fmt.Errorf("PATCH %s: server at version %d, replica at %d — state drift", name, ur.Version, got)
	}
	st.replicas[ur.Version] = st.live.Snapshot()
	st.mu.Unlock()
	d.mu.Lock()
	d.applied++
	d.appliedOp += ur.Ops
	d.rebuildMS = append(d.rebuildMS, ur.RebuildUS/1e3)
	d.mu.Unlock()
	return nil
}

// verdict is one response's verification outcome.
type verdict int

const (
	verdictOK verdict = iota
	verdictMismatch
	verdictPending
	verdictSkip // malformed canon (never happens on a 200) — not compared
)

// check verifies one 200 response against the cold evaluation of the
// version the server labeled it with. Responses for versions the
// updater has not recorded yet are parked for resolvePending.
func (d *churnDriver) check(j int, req serve.EvalRequest, verHeader string, body []byte) verdict {
	ver, err := strconv.ParseUint(verHeader, 10, 64)
	if err != nil {
		return verdictMismatch // a 200 without a well-formed version header
	}
	c, cerr := serve.Canonicalize(req, d.cfg.nets[j].N(), d.cfg.nets[j].Source())
	if cerr != nil {
		return verdictSkip
	}
	switch ok, known := d.compare(j, ver, c, body); {
	case !known:
		d.mu.Lock()
		d.pending = append(d.pending, pendingVerify{net: j, ver: ver, key: c.Key, mech: c.Mech, body: body})
		d.mu.Unlock()
		return verdictPending
	case ok:
		return verdictOK
	default:
		return verdictMismatch
	}
}

// compare checks a response against the cold bytes of (net, version,
// canonical key); known is false when the version has no snapshot yet.
func (d *churnDriver) compare(j int, ver uint64, c serve.CanonRequest, body []byte) (ok, known bool) {
	want, known := d.expectedBytes(j, ver, c.Mech, c.Key, c.Profile)
	return known && want != nil && bytes.Equal(want, body), known
}

// expectedBytes returns the cold-evaluated bytes for (network j,
// version, canonical key), computing and caching them on first need.
// known is false when the version has no replica snapshot yet; a nil
// result with known == true means the expectation itself could not be
// formed (the replica rejects the mechanism, or a malformed key) —
// callers count that as a mismatch. profile may be nil: the canonical
// key's sparse hex-float encoding is exact, so the profile is
// reconstructed from the key (profileFromKey) when it is not at hand.
func (d *churnDriver) expectedBytes(j int, ver uint64, mechName, key string, profile mech.Profile) (want []byte, known bool) {
	st := d.perNet[j]
	st.mu.Lock()
	defer st.mu.Unlock()
	replica, have := st.replicas[ver]
	if !have {
		return nil, false
	}
	ck := strconv.FormatUint(ver, 10) + "\x1f" + key
	if want, have := st.expected[ck]; have {
		return want, true
	}
	if profile == nil {
		p, err := profileFromKey(key, replica.N())
		if err != nil {
			return nil, true
		}
		profile = p
	}
	ev := st.evs[ver]
	if ev == nil {
		// A width-1 evaluator verifies a daemon at any width: the bytes
		// are width-invariant by construction (DESIGN.md §14).
		ev = query.NewEvaluator(replica)
		st.evs[ver] = ev
	}
	m, err := ev.Mechanism(mechName)
	if err != nil {
		return nil, true
	}
	want, err = serve.EncodeOutcome(d.cfg.specs[j].Name, mechName, m.Run(profile))
	if err != nil {
		return nil, true
	}
	st.expected[ck] = want
	return want, true
}

// finish closes the run, drains the updater, and resolves every parked
// verification (all versions are recorded once the updater exits).
// It returns (verified, mismatches, firstErr) deltas for the report.
func (d *churnDriver) finish() (verified, mismatches int, firstErr string) {
	close(d.runDone)
	<-d.done
	d.mu.Lock()
	pending := d.pending
	d.pending = nil
	firstErr = d.updErr
	d.mu.Unlock()
	for _, p := range pending {
		netName := d.cfg.specs[p.net].Name
		// All versions are recorded now, so the same path as the live
		// check resolves each parked response; the profile comes back
		// out of the parked canonical key (expectedBytes inverts it).
		want, known := d.expectedBytes(p.net, p.ver, p.mech, p.key, nil)
		verified++
		switch {
		case !known:
			mismatches++
			if firstErr == "" {
				firstErr = fmt.Sprintf("response labeled version %d of %s, which the updater never created", p.ver, netName)
			}
		case want == nil || !bytes.Equal(want, p.body):
			mismatches++
			if firstErr == "" {
				firstErr = fmt.Sprintf("byte mismatch on %s/%s at version %d (late verify)", netName, p.mech, p.ver)
			}
		}
	}
	return verified, mismatches, firstErr
}

// profileFromKey inverts the serving codec's sparse canonical key
// ("mech ␟ i=hexfloat ␟ …") back into the dense canonical profile. The
// encoding is exact (hex floats round-trip float64), so this is a true
// inverse.
func profileFromKey(key string, n int) ([]float64, error) {
	prof := make([]float64, n)
	parts := bytes.Split([]byte(key), []byte{0x1f})
	for _, part := range parts[1:] { // parts[0] is the mechanism name
		eq := bytes.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed key component %q", part)
		}
		i, err := strconv.Atoi(string(part[:eq]))
		if err != nil || i < 0 || i >= n {
			return nil, fmt.Errorf("malformed key index %q", part)
		}
		v, err := strconv.ParseFloat(string(part[eq+1:]), 64)
		if err != nil {
			return nil, err
		}
		prof[i] = v
	}
	return prof, nil
}

// report summarizes the churn half of a run for the load report.
func (d *churnDriver) report(tab interface{ Note(string, ...any) }) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sort.Float64s(d.rebuildMS)
	med := "-"
	max := "-"
	if len(d.rebuildMS) > 0 {
		med = fmt.Sprintf("%.3f", d.rebuildMS[len(d.rebuildMS)/2])
		max = fmt.Sprintf("%.3f", d.rebuildMS[len(d.rebuildMS)-1])
	}
	tab.Note("churn: %d updates applied (%d ops), evaluator rebuild p50 %s ms, max %s ms",
		d.applied, d.appliedOp, med, max)
}

// ensureFreshNetworks (churn mode) re-registers every driven network —
// evict if hosted, then register — so the run starts from version 0 of
// the exact spec and the replica state cannot be poisoned by an earlier
// churn run against the same daemon.
func ensureFreshNetworks(baseURL string, specs []instances.Spec) error {
	for _, sp := range specs {
		delReq, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/networks/"+sp.Name, nil)
		if err != nil {
			return err
		}
		resp, err := httpClient.Do(delReq)
		if err != nil {
			return fmt.Errorf("evicting %s: %w", sp.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("evicting %s: status %d", sp.Name, resp.StatusCode)
		}
		b, _ := json.Marshal(sp)
		resp, err = httpClient.Post(baseURL+"/v1/networks", "application/json", bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("registering %s: %w", sp.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d", sp.Name, resp.StatusCode)
		}
	}
	return nil
}
