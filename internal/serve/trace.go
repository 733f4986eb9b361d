package serve

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"wmcs/internal/obs"
)

// This file is the serving side of the observability layer (DESIGN.md
// §13): every /v1/evaluate, /v1/batch and PATCH request gets a pooled
// obs.Trace whose ID is echoed in the X-Wmcs-Trace response header;
// spans recorded along the admission pipeline feed the per-stage
// histograms, the slowest-trace ring behind /debugz/slow, and the
// structured request-summary log. The invariant the differential tests
// pin: tracing never changes response bodies — the only wire-visible
// additions are the header and the explicit ?trace=1 envelope, whose
// Response field embeds the canonical bytes verbatim.

// DefaultSlowRequest is the wall-time threshold above which an
// otherwise healthy request is logged and counted slow when the caller
// leaves Options.SlowRequest unset.
const DefaultSlowRequest = 250 * time.Millisecond

// DefaultSlowTraces is the capacity of the slowest-trace ring behind
// /debugz/slow.
const DefaultSlowTraces = 32

// tracedResponse is the ?trace=1 envelope: the span breakdown plus the
// exact bytes the untraced request would have answered. Response is
// embedded raw, so opting into a trace can never perturb the canonical
// body — it is the same byte string, wrapped.
type tracedResponse struct {
	Trace    obs.Snapshot    `json:"trace"`
	Response json.RawMessage `json:"response"`
}

// wantTrace reports whether the request opted into the inline span
// breakdown.
func wantTrace(r *http.Request) bool { return r.URL.Query().Get("trace") == "1" }

// sourceWord maps the X-Wmcs-Cache header vocabulary to the logging
// schema's source field ("cache" | "coalesced" | "computed").
func sourceWord(source string) string {
	switch source {
	case "hit":
		return "cache"
	case "coalesced":
		return "coalesced"
	case "miss":
		return "computed"
	}
	return source
}

// closeTrace retires a request trace: stamp the total, feed the
// per-stage histograms (skipped for the outer batch trace, whose
// fan-out span would pollute the per-request stage distributions),
// classify slow, emit the request-summary log record if warranted,
// offer the trace to the slow ring, and return it to the pool. Always
// deferred right after Start, so every exit path — decode failures,
// 4xxs, recovered panics — retires its trace exactly once.
func (s *Server) closeTrace(tr *obs.Trace, stages bool) {
	total := tr.Finish()
	if stages {
		for _, sp := range tr.Spans() {
			s.stats.ObserveStage(sp.Stage, sp.Dur)
		}
	}
	ok := tr.Status >= 200 && tr.Status < 300
	slow := s.slow > 0 && total >= s.slow && ok
	if slow {
		s.stats.SlowRequests.Add(1)
	}
	if s.logger != nil && (!ok || slow) {
		s.logRequest(tr, total, slow)
	}
	s.tracer.Offer(tr)
	s.tracer.Release(tr)
}

// logRequest emits one structured request-summary record (the logging
// schema of DESIGN.md §13.4): trace ID, op, network, mechanism,
// version, source, status, total duration, and the per-stage split as
// a "stages" group of microsecond attrs.
func (s *Server) logRequest(tr *obs.Trace, total time.Duration, slow bool) {
	level := slog.LevelInfo
	switch {
	case tr.Status >= 500:
		level = slog.LevelError
	case tr.Status >= 300:
		level = slog.LevelWarn
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("trace", tr.ID),
		slog.String("op", tr.Op),
		slog.Int("status", tr.Status),
		slog.Float64("dur_us", float64(total.Nanoseconds())/1e3),
	)
	if tr.Network != "" {
		attrs = append(attrs, slog.String("network", tr.Network))
	}
	if tr.Mech != "" {
		attrs = append(attrs, slog.String("mech", tr.Mech))
	}
	if tr.Version > 0 {
		attrs = append(attrs, slog.Uint64("version", tr.Version))
	}
	if tr.Source != "" {
		attrs = append(attrs, slog.String("source", tr.Source))
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if tr.Err != "" {
		attrs = append(attrs, slog.String("error", tr.Err))
	}
	// The per-stage split: one attr per recorded stage, durations
	// summed per stage so repeated spans (none today) stay one field.
	var perStage [obs.NumStages]time.Duration
	var seen [obs.NumStages]bool
	for _, sp := range tr.Spans() {
		if sp.Stage < obs.NumStages {
			perStage[sp.Stage] += sp.Dur
			seen[sp.Stage] = true
		}
	}
	stageAttrs := make([]any, 0, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if seen[st] {
			stageAttrs = append(stageAttrs, slog.Float64(st.String()+"_us", float64(perStage[st].Nanoseconds())/1e3))
		}
	}
	attrs = append(attrs, slog.Group("stages", stageAttrs...))
	s.logger.LogAttrs(context.Background(), level, "request", attrs...)
}

// writeTraced answers a request with body (already-canonical bytes) at
// the given status, honoring the ?trace=1 envelope. The envelope's
// snapshot is taken at write time, so it carries every span recorded so
// far; the closing bookkeeping (ring, histograms, log) still sees the
// final Finish.
func (s *Server) writeTraced(w http.ResponseWriter, traced bool, tr *obs.Trace, code int, body []byte) {
	tr.Status = code
	if !traced {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(body)
		return
	}
	writeJSON(w, code, tracedResponse{Trace: tr.Snapshot(), Response: body})
}

// handleSlowTraces serves GET /debugz/slow: the ring of the slowest
// traces seen since boot, slowest first.
func (s *Server) handleSlowTraces(w http.ResponseWriter, r *http.Request) {
	slowest := s.tracer.Slowest()
	if slowest == nil {
		slowest = []obs.Snapshot{}
	}
	writeJSON(w, http.StatusOK, struct {
		Slowest []obs.Snapshot `json:"slowest"`
	}{slowest})
}
