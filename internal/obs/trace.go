// Package obs is the daemon's zero-dependency observability layer
// (DESIGN.md §13): request-scoped span traces with a pooled, fixed-size
// recorder (no allocations per span on the serving hot path), a bounded
// ring of the slowest traces seen, and Prometheus text-format exposition
// over the serve layer's log2 latency histograms — plus the matching
// exposition parser the load driver and the tests scrape with.
//
// The package is deliberately below the serve layer: it knows nothing
// about networks, mechanisms, caches or HTTP. The serve layer owns what
// gets traced and what gets exposed; obs owns how a trace is recorded
// and how a metric is rendered.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels one span of a request's path through the daemon. The
// serving stages follow the admission pipeline in order; the update
// stages cover PATCH. String() names are the wire form (span JSON, the
// stage label of wmcs_stage_duration_seconds) — stable, snake_case.
type Stage uint8

const (
	// StageAdmission covers request decode and registry resolution.
	StageAdmission Stage = iota
	// StageCanonicalize covers request validation + canonical key build.
	StageCanonicalize
	// StageCacheLookup covers the result-cache probe (hit or miss).
	StageCacheLookup
	// StageCoalesce covers a follower's wait on another caller's
	// identical in-flight computation (singleflight).
	StageCoalesce
	// StageQueueWait covers a cache-miss leader's wait for a compute
	// slot.
	StageQueueWait
	// StageEvaluate covers the leader's evaluation call.
	StageEvaluate
	// StageCompute is this request's own evaluation, nested within
	// StageEvaluate; with one request per evaluation the two spans
	// coincide.
	StageCompute
	// StageEncode covers outcome → canonical response bytes.
	StageEncode
	// StageRebuild covers a PATCH's evaluator rebuild+warm+swap.
	StageRebuild
	// StagePurge covers a PATCH's retired-prefix cache purge.
	StagePurge
	// NumStages bounds Stage values (array sizing).
	NumStages
)

var stageNames = [NumStages]string{
	"admission", "canonicalize", "cache_lookup", "coalesce", "queue_wait",
	"evaluate", "compute", "encode", "rebuild", "purge",
}

// String returns the stage's stable wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// StageNames lists every stage's wire name in Stage order — the fixed
// label set of the per-stage exposition.
func StageNames() []string { return stageNames[:] }

// MaxSpans bounds how many spans one trace records; recording past the
// cap drops the span (a trace is a diagnostic, never a ledger).
const MaxSpans = 16

// Span is one recorded stage: its offset from the trace start and its
// duration. Spans may nest or overlap (StageCompute sits inside
// StageEvaluate); coverage arithmetic unions the intervals.
type Span struct {
	Stage Stage
	Start time.Duration // offset from Trace.Begin
	Dur   time.Duration
}

// Trace is one request's span recorder: a fixed-size span array plus
// the request annotations the serving layer fills in. Recording is not
// synchronized — the serving path hands a trace between goroutines only
// across happens-before edges (channel send/receive), never
// concurrently. A nil *Trace is valid everywhere and records nothing,
// so untraced paths (in-process callers) pass nil.
type Trace struct {
	ID    string
	Begin time.Time

	// Request annotations, set by the owner as they become known.
	Op      string // "evaluate" | "batch" | "update"
	Network string
	Mech    string
	Source  string // "cache" | "coalesced" | "computed" (evaluate ops)
	Version uint64 // network lifecycle version served (0 = unknown)
	Status  int    // HTTP status answered
	Err     string // terminal error, if any

	spans [MaxSpans]Span
	n     int
	total time.Duration // set by Finish; 0 while live
}

// Record appends one span with an absolute start time. Nil-safe; spans
// past MaxSpans are dropped.
func (t *Trace) Record(st Stage, start time.Time, d time.Duration) {
	if t == nil || t.n >= MaxSpans {
		return
	}
	if d < 0 {
		d = 0
	}
	t.spans[t.n] = Span{Stage: st, Start: start.Sub(t.Begin), Dur: d}
	t.n++
}

// RecordSince is Record with d = now - start — the common "span ends
// now" form.
func (t *Trace) RecordSince(st Stage, start time.Time) {
	t.Record(st, start, time.Since(start))
}

// Finish stamps the trace's total wall time (idempotent: the first call
// wins, so a snapshot taken mid-flight does not shorten the final one).
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	if t.total == 0 {
		t.total = time.Since(t.Begin)
	}
	return t.total
}

// Total returns the finished wall time, or the live elapsed time for an
// unfinished trace.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	if t.total > 0 {
		return t.total
	}
	return time.Since(t.Begin)
}

// Spans returns the recorded spans (a view of the fixed array — valid
// until the trace is released to its pool).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans[:t.n]
}

// Covered returns the union length of the span intervals — the portion
// of the trace's timeline that some span accounts for. Nested and
// overlapping spans count once, which is what makes "spans cover ≥ 95%
// of the wall time" a meaningful contract.
func (t *Trace) Covered() time.Duration {
	if t == nil || t.n == 0 {
		return 0
	}
	iv := make([]Span, t.n)
	copy(iv, t.spans[:t.n])
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var covered, end time.Duration
	end = -1
	var cur time.Duration
	started := false
	for _, s := range iv {
		lo, hi := s.Start, s.Start+s.Dur
		if !started || lo > end {
			if started {
				covered += end - cur
			}
			cur, end, started = lo, hi, true
			continue
		}
		if hi > end {
			end = hi
		}
	}
	if started {
		covered += end - cur
	}
	return covered
}

// SpanSnap is the wire form of one span (microseconds, like /statsz).
type SpanSnap struct {
	Stage   string  `json:"stage"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// Snapshot is a trace frozen for the wire: what ?trace=1 inlines and
// what the slow ring retains after the live Trace returns to its pool.
type Snapshot struct {
	ID        string     `json:"trace_id"`
	Op        string     `json:"op"`
	Network   string     `json:"network,omitempty"`
	Mech      string     `json:"mech,omitempty"`
	Source    string     `json:"source,omitempty"`
	Version   uint64     `json:"version,omitempty"`
	Status    int        `json:"status,omitempty"`
	Error     string     `json:"error,omitempty"`
	Start     time.Time  `json:"start"`
	TotalUS   float64    `json:"total_us"`
	CoveredUS float64    `json:"covered_us"`
	Spans     []SpanSnap `json:"spans"`
}

// Snapshot freezes the trace. Safe on a live trace (total falls back to
// elapsed-so-far); the result shares nothing with the pooled Trace.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		ID: t.ID, Op: t.Op, Network: t.Network, Mech: t.Mech,
		Source: t.Source, Version: t.Version, Status: t.Status, Error: t.Err,
		Start:     t.Begin,
		TotalUS:   float64(t.Total().Nanoseconds()) / 1e3,
		CoveredUS: float64(t.Covered().Nanoseconds()) / 1e3,
		Spans:     make([]SpanSnap, t.n),
	}
	for i, s := range t.spans[:t.n] {
		snap.Spans[i] = SpanSnap{
			Stage:   s.Stage.String(),
			StartUS: float64(s.Start.Nanoseconds()) / 1e3,
			DurUS:   float64(s.Dur.Nanoseconds()) / 1e3,
		}
	}
	return snap
}

// Tracer hands out pooled traces with process-unique IDs and owns the
// slow-trace ring. IDs are salt-seq pairs: an 8-hex-char random process
// salt (so IDs from different daemon runs are distinguishable in logs)
// plus a monotone per-tracer sequence number.
type Tracer struct {
	salt string
	seq  atomic.Uint64
	pool sync.Pool
	ring *SlowRing
}

// NewTracer builds a tracer whose slow ring retains the ringSize
// slowest traces (ringSize <= 0 disables retention; Offer becomes a
// no-op).
func NewTracer(ringSize int) *Tracer {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// A salt is only for cross-process log readability; fall back to
		// the clock rather than failing construction.
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	tr := &Tracer{salt: hex8(binary.LittleEndian.Uint32(b[:]))}
	tr.pool.New = func() any { return new(Trace) }
	if ringSize > 0 {
		tr.ring = NewSlowRing(ringSize)
	}
	return tr
}

func hex8(v uint32) string {
	const digits = "0123456789abcdef"
	var out [8]byte
	for i := 7; i >= 0; i-- {
		out[i] = digits[v&0xf]
		v >>= 4
	}
	return string(out[:])
}

// Start checks a reset trace out of the pool with a fresh ID and the
// given op. Release it (after any ring Offer) when the request is done.
func (tr *Tracer) Start(op string) *Trace {
	//lint:poolput ownership transfers to the caller, who returns it via Tracer.Release when the request finishes
	t := tr.pool.Get().(*Trace)
	*t = Trace{
		ID:    tr.salt + "-" + strconv.FormatUint(tr.seq.Add(1), 16),
		Begin: time.Now(),
		Op:    op,
	}
	return t
}

// StartChild is Start for a sub-request (one /v1/batch element): the
// child's ID is the parent's plus ".i", so a slow element's ring entry
// points back at the batch that carried it.
func (tr *Tracer) StartChild(parent *Trace, i int) *Trace {
	//lint:poolput ownership transfers to the caller, who returns it via Tracer.Release when the request finishes
	t := tr.pool.Get().(*Trace)
	*t = Trace{
		ID:    parent.ID + "." + strconv.Itoa(i),
		Begin: time.Now(),
		Op:    parent.Op,
	}
	return t
}

// Offer finishes the trace and retains a snapshot in the slow ring if
// it ranks among the slowest seen. Call before Release.
func (tr *Tracer) Offer(t *Trace) {
	if t == nil || tr.ring == nil {
		return
	}
	t.Finish()
	tr.ring.Offer(t)
}

// Release returns the trace to the pool. The caller must not touch it
// afterwards (snapshots taken earlier stay valid — they share nothing).
func (tr *Tracer) Release(t *Trace) {
	if t != nil {
		tr.pool.Put(t)
	}
}

// Slowest returns the ring's snapshots, slowest first (empty when the
// ring is disabled).
func (tr *Tracer) Slowest() []Snapshot {
	if tr.ring == nil {
		return nil
	}
	return tr.ring.Slowest()
}
