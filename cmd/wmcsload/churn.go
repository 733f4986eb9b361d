package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/wireless"
)

// Churn mode (-churn): an updater goroutine interleaves PATCH
// /v1/networks/{name} deltas — drawn from the instances churn registry
// — with the query stream. It replays every delta the server
// acknowledges on its own live replica of the network and records a
// snapshot of each version it creates in cfg.replicas, so verify checks
// every response against a cold evaluation of the exact version the
// server says produced it: a torn read, a stale cache generation, or
// bytes mislabeled with the wrong version all surface as mismatches.
// The interleaving of updates and queries is scheduling-dependent, but
// verification is version-pinned, so the mismatch count is 0 at every
// -parallel — that is the mode's invariant, asserted by CI.

// churnDriver owns the updater's state. One per run.
type churnDriver struct {
	// cfg is the run's configuration; its baseURL may be filled in
	// after construction, before run starts.
	cfg      *loadConfig
	updates  int
	churners []instances.Churner
	live     []*wireless.Network
	// completed counts query attempts; the updater paces itself on it.
	completed atomic.Int64
	// runDone releases the updater if the query stream ends early.
	runDone chan struct{}
	done    chan struct{}

	// Written by the updater only; read after done closes.
	rebuildMS []float64 // rebuild latencies the PATCH replies reported
	err       error
}

// newChurnDriver validates the model selection against every driven
// network and starts each live replica at version 0.
func newChurnDriver(cfg *loadConfig, updates int, model string, seed int64) (*churnDriver, error) {
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
		d.live = append(d.live, nw.Snapshot())
	}
	return d, nil
}

// run is the updater goroutine: space the updates evenly over the query
// stream (one PATCH per `spacing` completed queries, round-robin over
// the networks), apply each server-acknowledged delta to the matching
// replica, and record the new version's snapshot.
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
		if d.err = d.patch(j, up); d.err != nil {
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
		RebuildUS float64 `json:"rebuild_us"`
	}
	if err := json.Unmarshal(body, &ur); err != nil {
		return fmt.Errorf("PATCH %s: %w", name, err)
	}
	if err := up.Apply(d.live[j]); err != nil {
		return fmt.Errorf("PATCH %s: replica replay failed: %w", name, err)
	}
	if got := d.live[j].Version(); got != ur.Version {
		return fmt.Errorf("PATCH %s: server at version %d, replica at %d — state drift", name, ur.Version, got)
	}
	d.cfg.replicas[j][ur.Version] = d.live[j].Snapshot()
	d.rebuildMS = append(d.rebuildMS, ur.RebuildUS/1e3)
	return nil
}

// finish ends the run for the updater and waits for it to exit; it
// returns the updater's error, if any.
func (d *churnDriver) finish() error {
	close(d.runDone)
	<-d.done
	return d.err
}
