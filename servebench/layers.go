package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"wmcs/internal/detorder"
	"wmcs/internal/jv"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/memtred"
	"wmcs/internal/nwst"
	"wmcs/internal/obs"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/sharing"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
)

// The traced run (--trace 1) gives the per-layer numbers. It replays a
// workload's inputs three ways:
//
//   - an untraced pass with the server's /statsz and /metricsz read after
//     boot and after the timed phase; the counter rows are differences of
//     the two readings, so they cover setup and the timed phase;
//   - a traced pass: the same HTTP loop with one span per request, then
//     the hit path (Canonicalize, EvaluateCanon, ServeHTTP) called in
//     process on the same server;
//   - calls into query, memtred, nwst, sharing, jv and wireless on
//     private copies of the workload's networks, fed the workload's
//     requests and deltas.
//
// Every workload reports every row: a row whose layer a workload does
// not load is still measured on that workload's networks and inputs.

// probeMechs are the mechanisms the workloads send; approxMechs those of
// them with a sampled tier.
var (
	probeMechs  = []string{mechreg.WirelessBB, mechreg.UniversalShapley, mechreg.UniversalMC, mechreg.JVMoat, mechreg.LineShapley, mechreg.LineMC}
	approxMechs = []string{mechreg.UniversalShapley, mechreg.LineShapley}
)

const (
	// hitProbeReads is how many timed-phase reads the hit path replays.
	hitProbeReads = 2000
	// probeQueries and approxQueries are how many requests per network
	// the exact and the sampled layer calls take.
	probeQueries  = 8
	approxQueries = 4
	// buildReps is how many fresh evaluators query.build_ms builds.
	buildReps = 3
	// wirelessMaxN bounds the networks wireless-bb, its oracle and its
	// reduction are probed on: wireless-bb costs about 1 s per query at
	// n = 20, and no workload sends it above n = 12.
	wirelessMaxN = 12
)

// stageRows are the pipeline stages with a per-layer row. coalesce and
// parallel_evaluate have none: under the serial tier and these
// workloads they stay at zero.
var stageRows = []string{"admission", "canonicalize", "cache_lookup", "queue_wait", "evaluate", "compute", "encode", "rebuild", "carry_forward", "purge"}

// perLayer are the metrics of the traced run, in print order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handler_us", "us", "lower"},
		{"serve.handler_allocs", "count", "lower"},
		{"serve.transport_share", "ratio", "higher"},
		{"serve.canonicalize_us", "us", "lower"},
		{"serve.hit_us", "us", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.hit_ratio", "ratio", "higher"},
		{"serve.queue_wait_share", "ratio", "lower"},
		{"serve.batch_size", "count", "higher"},
	}
	for _, st := range stageRows {
		defs = append(defs, metricDef{"serve.stage_s." + st, "s", "lower"})
	}
	defs = append(defs,
		metricDef{"serve.stage_coverage", "ratio", "higher"},
		metricDef{"serve.carried_per_update", "count", "higher"},
		metricDef{"serve.incremental_share", "ratio", "higher"},
		metricDef{"serve.cached_mb", "MiB", "lower"},
	)
	for _, m := range probeMechs {
		defs = append(defs, metricDef{"query.evaluate_ms." + m, "ms", "lower"})
	}
	for _, m := range approxMechs {
		defs = append(defs, metricDef{"query.evaluate_approx_ms." + m, "ms", "lower"})
	}
	for _, m := range probeMechs {
		defs = append(defs, metricDef{"query.evaluate_allocs." + m, "count", "lower"})
	}
	return append(defs,
		metricDef{"query.build_ms", "ms", "lower"},
		metricDef{"query.update_ms", "ms", "lower"},
		metricDef{"memtred.new_ms", "ms", "lower"},
		metricDef{"memtred.rebuild_ms", "ms", "lower"},
		metricDef{"wireless.apply_us", "us", "lower"},
		metricDef{"nwst.oracle_ms", "ms", "lower"},
		metricDef{"sharing.sampled_ms", "ms", "lower"},
		metricDef{"jv.moats_ms", "ms", "lower"},
	)
}()

// tracedRun produces the per-layer metrics of one workload.
func tracedRun(in *inputs, out io.Writer, spanFile string) ([]metric, passResult, error) {
	// The untraced pass sets up as often as an untraced run does, so it
	// times a process that is just as warm.
	untraced, err := pass(in, passOpts{setups: in.wl.setups, scrape: true, verify: true})
	if err != nil {
		return nil, untraced, err
	}
	origin := time.Now()
	var loop [clients]*tracer
	for c := range loop {
		loop[c] = newTracer(origin, (c+1)<<28)
	}
	probe := newTracer(origin, (clients+1)<<28)
	var handlerAllocs float64
	traced, err := pass(in, passOpts{setups: 1, tr: &loop, probe: func(st *stack) error {
		var err error
		handlerAllocs, err = probeHitPath(in, st, probe)
		return err
	}})
	if err != nil {
		return nil, untraced, err
	}
	ca, err := probeCompute(in, probe)
	if err != nil {
		return nil, untraced, err
	}
	// Both passes count toward the run's operations and failures.
	untraced.attempted += traced.attempted + ca.attempted
	untraced.failed += traced.failed + ca.failed
	if untraced.firstErr == "" {
		untraced.firstErr = traced.firstErr
		if untraced.firstErr == "" {
			untraced.firstErr = ca.firstErr
		}
	}

	var spans []span
	for _, t := range loop {
		spans = append(spans, t.spans...)
	}
	spans = append(spans, probe.spans...)
	stats := statsByName(spans)

	ms, err := counterMetrics(untraced.scrapes)
	if err != nil {
		return nil, untraced, err
	}
	get := func(name string) (*spanStats, error) {
		st := stats[name]
		if st == nil {
			return nil, fmt.Errorf("no %s spans", name)
		}
		return st, nil
	}
	spanMetric := func(row, name, unit string, scale float64) error {
		st, err := get(name)
		if err != nil {
			return err
		}
		ms = append(ms, metric{row, median(st.durs) * scale, unit, len(st.durs), "median"})
		return nil
	}
	rtMedian := median(msSorted(untraced.reads)) / 1e3
	handler, err := get("serve.handler")
	if err != nil {
		return nil, untraced, err
	}
	ms = append(ms,
		metric{"serve.handler_allocs", handlerAllocs, "count", 0, "per ServeHTTP"},
		metric{"serve.transport_share", 1 - median(handler.durs)/rtMedian, "ratio", 0, "1 − handler median ÷ untraced round-trip median"},
	)
	rows := []struct{ row, span, unit string }{
		{"serve.handler_us", "serve.handler", "us"},
		{"serve.canonicalize_us", "serve.canonicalize", "us"},
		{"serve.hit_us", "serve.hit", "us"},
		{"serve.encode_us", "serve.encode", "us"},
		{"query.update_ms", "query.update", "ms"},
		{"memtred.new_ms", "memtred.new", "ms"},
		{"memtred.rebuild_ms", "memtred.rebuild", "ms"},
		{"wireless.apply_us", "wireless.apply", "us"},
		{"nwst.oracle_ms", "nwst.oracle", "ms"},
		{"sharing.sampled_ms", "sharing.sampled", "ms"},
		{"jv.moats_ms", "jv.moats", "ms"},
	}
	for _, m := range probeMechs {
		rows = append(rows, struct{ row, span, unit string }{"query.evaluate_ms." + m, "query.evaluate." + m, "ms"})
	}
	for _, m := range approxMechs {
		rows = append(rows, struct{ row, span, unit string }{"query.evaluate_approx_ms." + m, "query.evaluate_approx." + m, "ms"})
	}
	for _, r := range rows {
		scale := 1e3
		if r.unit == "us" {
			scale = 1e6
		}
		if err := spanMetric(r.row, r.span, r.unit, scale); err != nil {
			return nil, untraced, err
		}
	}
	for _, m := range probeMechs {
		ms = append(ms, metric{"query.evaluate_allocs." + m, ca.allocs[m], "count", 0, "per Evaluate"})
	}
	builds := make([]float64, buildReps)
	for _, s := range spans {
		if s.Name == "query.build" {
			builds[s.Op] += s.dur().Seconds() * 1e3
		}
	}
	ms = append(ms, metric{"query.build_ms", median(builds), "ms", buildReps, "median over fresh evaluators of the total first-Mechanism time"})

	fmt.Fprintln(out, "spans (median duration and self time, seconds):")
	for _, name := range detorder.Keys(stats) {
		st := stats[name]
		fmt.Fprintf(out, "  %-40s n=%-7d dur %.6g  self %.6g\n", name, len(st.durs), median(st.durs), median(st.self))
	}
	tracedReads := msSorted(traced.reads)
	untracedReads := msSorted(untraced.reads)
	fmt.Fprintf(out, "tracing overhead (traced − untraced HTTP loop): p50 %+.6g ms (%.6g vs %.6g), throughput %+.6g q/s (%.6g vs %.6g)\n",
		median(tracedReads)-median(untracedReads), median(tracedReads), median(untracedReads),
		float64(len(tracedReads))/traced.wall.Seconds()-float64(len(untracedReads))/untraced.wall.Seconds(),
		float64(len(tracedReads))/traced.wall.Seconds(), float64(len(untracedReads))/untraced.wall.Seconds())
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, untraced, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", spanFile)
	return ms, untraced, nil
}

// probeReads picks the first n timed-phase reads, alternating clients.
func probeReads(in *inputs, n int) []op {
	var out []op
	for i := 0; len(out) < n; i++ {
		more := false
		for c := range in.timed {
			if i < len(in.timed[c]) {
				more = true
				if o := in.timed[c][i]; o.kind == opRead && len(out) < n {
					out = append(out, o)
				}
			}
		}
		if !more {
			break
		}
	}
	return out
}

// probeHitPath calls the hit path in process on a serving stack whose
// cache holds the timed phase's answers, and returns the allocations per
// ServeHTTP.
func probeHitPath(in *inputs, st *stack, tr *tracer) (float64, error) {
	ops := probeReads(in, hitProbeReads)
	reqs := make([]serve.EvalRequest, len(ops))
	for i, o := range ops {
		if err := json.Unmarshal(in.nets[o.net].bodies[o.item], &reqs[i]); err != nil {
			return 0, err
		}
	}
	canons := make([]serve.CanonRequest, len(ops))
	for i, o := range ops {
		nw := in.nets[o.net].nw
		id := tr.begin("serve.canonicalize", 0, i)
		c, err := serve.Canonicalize(reqs[i], nw.N(), nw.Source())
		tr.end(id)
		if err != nil {
			return 0, err
		}
		canons[i] = c
	}
	for i := range ops {
		id := tr.begin("serve.hit", 0, i)
		_, _, err := st.srv.EvaluateCanon(canons[i])
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("EvaluateCanon: %w", err)
		}
	}
	hreqs, recs := handlerCalls(in, ops)
	for i := range ops {
		id := tr.begin("serve.handler", 0, i)
		st.srv.ServeHTTP(recs[i], hreqs[i])
		tr.end(id)
		if recs[i].Code != http.StatusOK {
			return 0, fmt.Errorf("ServeHTTP: status %d: %s", recs[i].Code, recs[i].Body.Bytes())
		}
	}
	hreqs, recs = handlerCalls(in, ops)
	return allocsPer(len(ops), func() {
		for i := range ops {
			st.srv.ServeHTTP(recs[i], hreqs[i])
		}
	}), nil
}

func handlerCalls(in *inputs, ops []op) ([]*http.Request, []*httptest.ResponseRecorder) {
	reqs := make([]*http.Request, len(ops))
	recs := make([]*httptest.ResponseRecorder, len(ops))
	for i, o := range ops {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(in.nets[o.net].bodies[o.item]))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	return reqs, recs
}

// allocsPer is the heap allocations fn makes, divided by n.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// computeResult is what probeCompute measured besides its spans.
type computeResult struct {
	allocs    map[string]float64 // per Evaluate, by mechanism
	attempted int
	failed    int
	firstErr  string
}

// probeMechsFor lists the probed mechanisms a network admits.
func probeMechsFor(nw *wireless.Network) []string {
	var out []string
	for _, m := range probeMechs {
		if mechreg.Supports(m, nw) != nil || (m == mechreg.WirelessBB && nw.N() > wirelessMaxN) {
			continue
		}
		out = append(out, m)
	}
	return out
}

// servedMechs lists the mechanisms the workload sends to a network, in
// first-use order.
func servedMechs(ni *netInput) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range ni.reqs {
		if !seen[r.Mech] {
			seen[r.Mech] = true
			out = append(out, r.Mech)
		}
	}
	return out
}

// probeCompute calls the compute and update layers on private copies of
// the workload's networks.
func probeCompute(in *inputs, tr *tracer) (computeResult, error) {
	res := computeResult{allocs: map[string]float64{}}
	mallocs := map[string]float64{}
	evals := map[string]int{}
	fail := func(format string, args ...any) {
		res.failed++
		if res.firstErr == "" {
			res.firstErr = fmt.Sprintf(format, args...)
		}
	}
	for j, ni := range in.nets {
		nw := ni.nw
		mechs := probeMechsFor(nw)
		n := min(probeQueries, len(ni.reqs))
		profs := make([]mech.Profile, n)
		for i := range profs {
			c, err := serve.Canonicalize(ni.reqs[i], nw.N(), nw.Source())
			if err != nil {
				return res, err
			}
			profs[i] = c.Profile
		}

		var ev *query.Evaluator
		for rep := 0; rep < buildReps; rep++ {
			e := query.NewEvaluator(nw)
			id := tr.begin("query.build", 0, rep)
			for _, m := range mechs {
				if _, err := e.Mechanism(m); err != nil {
					return res, err
				}
			}
			tr.end(id)
			if rep == 0 {
				ev = e
			}
		}
		for _, m := range mechs {
			for i, p := range profs {
				id := tr.begin("query.evaluate."+m, 0, j*1000+i)
				o, err := ev.Evaluate(m, nil, p)
				tr.end(id)
				if err != nil {
					return res, err
				}
				id = tr.begin("serve.encode", 0, j*1000+i)
				_, err = serve.EncodeOutcome(ni.spec.Name, m, o)
				tr.end(id)
				if err != nil {
					return res, err
				}
			}
		}
		spec := mech.ApproxSpec{Samples: approxWire.Samples, Delta: approxWire.Delta, Seed: approxWire.Seed}
		for _, m := range approxMechs {
			if mechreg.Supports(m, nw) != nil {
				continue
			}
			for i, p := range profs[:min(approxQueries, n)] {
				id := tr.begin("query.evaluate_approx."+m, 0, j*1000+i)
				o, cert, err := ev.EvaluateApprox(m, nil, p, spec)
				tr.end(id)
				if err != nil {
					return res, err
				}
				id = tr.begin("serve.encode", 0, j*1000+i)
				_, err = serve.EncodeOutcomeCert(ni.spec.Name, m, o, &cert)
				tr.end(id)
				if err != nil {
					return res, err
				}
			}
		}
		// Allocations on a fresh evaluator, so they repeat exactly.
		fresh := query.NewEvaluator(nw)
		for _, m := range mechs {
			if _, err := fresh.Mechanism(m); err != nil {
				return res, err
			}
			var err error
			mallocs[m] += allocsPer(1, func() {
				for _, p := range profs {
					if _, e := fresh.Evaluate(m, nil, p); e != nil {
						err = e
					}
				}
			})
			if err != nil {
				return res, err
			}
			evals[m] += len(profs)
		}

		for i := 0; i < n; i++ {
			R := ni.reqs[i].R
			id := tr.begin("jv.moats", 0, j*1000+i)
			jv.Moats(nw, R, nil)
			tr.end(id)
		}
		cost := universal.SPT(nw).CostFunc()
		for i := 0; i < min(approxQueries, n); i++ {
			s, err := sharing.NewSampledShapley(nw.AllReceivers(), cost, approxWire.Samples, approxWire.Delta, approxWire.Seed)
			if err != nil {
				return res, err
			}
			id := tr.begin("sharing.sampled", 0, j*1000+i)
			s.SharesCert(ni.reqs[i].R)
			tr.end(id)
		}
		if nw.N() <= wirelessMaxN {
			rd := memtred.New(nw)
			for i := 0; i < n; i++ {
				R := ni.reqs[i].R
				st := nwst.NewState(rd.Instance(R))
				id := tr.begin("nwst.oracle", 0, j*1000+i)
				nwst.BranchSpiderOracle(st, min(len(R), 3))
				tr.end(id)
			}
		}

		if len(ni.deltas) == 0 {
			continue
		}
		// Replay the deltas through a versioned evaluator that has built
		// what the server built for this network.
		v := query.NewVersioned(nw)
		for _, m := range servedMechs(ni) {
			if _, err := v.Evaluator().Mechanism(m); err != nil {
				return res, err
			}
		}
		for k := range ni.deltas {
			up := ni.deltas[k]
			res.attempted++
			id := tr.begin("query.update", 0, j*1000+k)
			ur, err := v.Update(func(w *wireless.Network) error {
				a := tr.begin("wireless.apply", id, j*1000+k)
				defer tr.end(a)
				return up.Apply(w)
			})
			tr.end(id)
			if err != nil || ur.NewVersion != ni.snaps[k].Version() {
				fail("%s delta %d: Update gave version %d, %v; want version %d", ni.spec.Name, k, ur.NewVersion, err, ni.snaps[k].Version())
			}
		}
		if nw.N() > wirelessMaxN {
			continue
		}
		prevNet, prev := nw, memtred.New(nw)
		for k, up := range ni.deltas {
			post := prevNet.Snapshot()
			if err := up.Apply(post); err != nil {
				return res, err
			}
			d := post.TakeDelta()
			id := tr.begin("memtred.new", 0, j*1000+k)
			rd := memtred.New(post)
			tr.end(id)
			id = tr.begin("memtred.rebuild", 0, j*1000+k)
			memtred.Rebuild(prev, post, d.DirtyRows)
			tr.end(id)
			prevNet, prev = post, rd
		}
	}
	for m, total := range mallocs {
		res.allocs[m] = total / float64(evals[m])
	}
	return res, nil
}

// counterMetrics differences the server's own counters over setup and
// the timed phase.
func counterMetrics(s [2]scrape) ([]metric, error) {
	if s[0].prom == nil || s[1].prom == nil {
		return nil, fmt.Errorf("counters were not scraped")
	}
	stage := func(name string) float64 {
		match := map[string]string{"stage": name}
		x, _ := s[0].prom.Get("wmcs_stage_duration_seconds_sum", match)
		y, _ := s[1].prom.Get("wmcs_stage_duration_seconds_sum", match)
		return y - x
	}
	stageSec := map[string]float64{}
	for _, name := range obs.StageNames() {
		stageSec[name] = stage(name)
	}
	reqSec := s[1].prom.Sum("wmcs_request_duration_seconds_sum", nil) - s[0].prom.Sum("wmcs_request_duration_seconds_sum", nil)
	r0, r1 := s[0].stats, s[1].stats
	queries := float64(r1.Queries - r0.Queries)
	batches := float64(r1.Batches - r0.Batches)
	updates := float64(r1.Updates - r0.Updates)
	if queries == 0 || batches == 0 || updates == 0 || reqSec <= 0 {
		return nil, fmt.Errorf("counters did not move (queries %g, batches %g, updates %g, request seconds %g)", queries, batches, updates, reqSec)
	}
	ms := []metric{
		{"serve.hit_ratio", float64(r1.Cache.Hits-r0.Cache.Hits) / queries, "ratio", 0, fmt.Sprintf("of %g queries", queries)},
		{"serve.queue_wait_share", stageSec["queue_wait"] / reqSec, "ratio", 0, fmt.Sprintf("of %.6g request seconds", reqSec)},
		{"serve.batch_size", float64(r1.BatchedQueries-r0.BatchedQueries) / batches, "count", 0, fmt.Sprintf("over %g batches", batches)},
	}
	for _, name := range stageRows {
		ms = append(ms, metric{"serve.stage_s." + name, stageSec[name], "s", 0, "total over the run"})
	}
	cached := s[1].prom.Sum("wmcs_network_cache_bytes", nil)
	return append(ms,
		metric{"serve.stage_coverage", stageCoverage(stageSec, reqSec), "ratio", 0, "non-nested read stages ÷ request seconds"},
		metric{"serve.carried_per_update", float64(r1.CarriedEntries-r0.CarriedEntries) / updates, "count", 0, fmt.Sprintf("over %g updates", updates)},
		metric{"serve.incremental_share", float64(r1.RebuildIncrementalUS.Count-r0.RebuildIncrementalUS.Count) / updates, "ratio", 0, fmt.Sprintf("of %g updates", updates)},
		metric{"serve.cached_mb", cached / (1 << 20), "MiB", 0, "cached bytes at the end of the timed phase"},
	), nil
}

// nestedStages lie inside another stage of the same request; update
// stages belong to PATCHes, whose time request seconds do not count.
var nestedStages = map[string]bool{"compute": true, "parallel_evaluate": true, "rebuild": true, "carry_forward": true, "purge": true}

// stageCoverage is the share of request time the non-nested stages
// account for.
func stageCoverage(stageSec map[string]float64, reqSec float64) float64 {
	var sum float64
	for name, sec := range stageSec {
		if !nestedStages[name] {
			sum += sec
		}
	}
	return sum / reqSec
}
