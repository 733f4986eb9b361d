package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestTraceRecordAndCoverage pins the span arithmetic: offsets are
// relative to Begin, Covered unions overlapping intervals (so a nested
// StageCompute inside StageEvaluate counts once), and recording past
// MaxSpans drops instead of growing.
func TestTraceRecordAndCoverage(t *testing.T) {
	tr := NewTracer(0)
	tc := tr.Start("evaluate")
	base := tc.Begin

	tc.Record(StageAdmission, base, 10*time.Millisecond)
	tc.Record(StageEvaluate, base.Add(10*time.Millisecond), 80*time.Millisecond)
	// Nested inside evaluate: must not double-count.
	tc.Record(StageCompute, base.Add(10*time.Millisecond), 60*time.Millisecond)
	// Overlapping tail.
	tc.Record(StageEncode, base.Add(85*time.Millisecond), 10*time.Millisecond)

	if got, want := tc.Covered(), 95*time.Millisecond; got != want {
		t.Fatalf("Covered = %v, want %v", got, want)
	}
	if n := len(tc.Spans()); n != 4 {
		t.Fatalf("recorded %d spans, want 4", n)
	}
	for i := 0; i < 2*MaxSpans; i++ {
		tc.Record(StagePurge, base, time.Millisecond)
	}
	if n := len(tc.Spans()); n != MaxSpans {
		t.Fatalf("span cap not enforced: %d spans", n)
	}

	// A nil trace records nothing and answers zero everywhere.
	var nilT *Trace
	nilT.Record(StageAdmission, base, time.Second)
	nilT.RecordSince(StageEncode, base)
	if nilT.Covered() != 0 || nilT.Total() != 0 || nilT.Finish() != 0 {
		t.Fatal("nil trace is not inert")
	}
	tr.Release(tc)
}

// TestTraceCoverageGap: disjoint spans with a hole between them cover
// only their own lengths.
func TestTraceCoverageGap(t *testing.T) {
	tr := NewTracer(0)
	tc := tr.Start("evaluate")
	base := tc.Begin
	tc.Record(StageAdmission, base, 5*time.Millisecond)
	tc.Record(StageEncode, base.Add(20*time.Millisecond), 5*time.Millisecond)
	if got, want := tc.Covered(), 10*time.Millisecond; got != want {
		t.Fatalf("Covered = %v, want %v", got, want)
	}
	tr.Release(tc)
}

// TestTracerIDsUnique: IDs are unique within a tracer and children
// carry their parent's ID as a prefix.
func TestTracerIDsUnique(t *testing.T) {
	tr := NewTracer(0)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tc := tr.Start("evaluate")
		if seen[tc.ID] {
			t.Fatalf("duplicate trace ID %q", tc.ID)
		}
		seen[tc.ID] = true
		if i == 0 {
			child := tr.StartChild(tc, 3)
			if want := tc.ID + ".3"; child.ID != want {
				t.Fatalf("child ID = %q, want %q", child.ID, want)
			}
			tr.Release(child)
		}
		tr.Release(tc)
	}
}

// TestSnapshotJSON: the snapshot wire form carries the annotations and
// stage names, and survives a pool round-trip (shares nothing with the
// released trace).
func TestSnapshotJSON(t *testing.T) {
	tr := NewTracer(0)
	tc := tr.Start("evaluate")
	tc.Network, tc.Mech, tc.Source, tc.Status = "uni", "wireless-bb", "computed", 200
	tc.Record(StageQueueWait, tc.Begin, 2*time.Millisecond)
	tc.Finish()
	snap := tc.Snapshot()
	tr.Release(tc)
	// Reuse the pooled trace for something else entirely.
	other := tr.Start("update")
	other.Network = "clobber"
	defer tr.Release(other)

	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Network != "uni" || decoded.Mech != "wireless-bb" || decoded.Status != 200 {
		t.Fatalf("snapshot lost annotations: %+v", decoded)
	}
	if len(decoded.Spans) != 1 || decoded.Spans[0].Stage != "queue_wait" {
		t.Fatalf("snapshot spans: %+v", decoded.Spans)
	}
	if decoded.TotalUS <= 0 || decoded.CoveredUS <= 0 {
		t.Fatalf("snapshot totals: %+v", decoded)
	}
}

// TestSlowRingKeepsSlowest: the ring retains exactly the N slowest
// traces regardless of offer order, sorted slowest-first on read.
func TestSlowRingKeepsSlowest(t *testing.T) {
	ring := NewSlowRing(3)
	// Offer durations 1..10 ms in a scrambled order.
	for _, ms := range []int{4, 9, 1, 7, 3, 10, 2, 8, 5, 6} {
		tc := &Trace{ID: fmt.Sprintf("t%d", ms), Begin: time.Now()}
		tc.total = time.Duration(ms) * time.Millisecond
		ring.Offer(tc)
	}
	got := ring.Slowest()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, want := range []string{"t10", "t9", "t8"} {
		if got[i].ID != want {
			t.Fatalf("slowest[%d] = %s, want %s (all: %v)", i, got[i].ID, want, got)
		}
	}
	// A fast trace against a full ring is rejected without shrinking it.
	fast := &Trace{ID: "fast", Begin: time.Now()}
	fast.total = time.Microsecond
	ring.Offer(fast)
	if got := ring.Slowest(); len(got) != 3 || got[2].ID != "t8" {
		t.Fatalf("fast offer disturbed the ring: %v", got)
	}
}

// TestStageNamesStable pins the wire names: exposition labels and span
// JSON depend on them.
func TestStageNamesStable(t *testing.T) {
	want := []string{"admission", "canonicalize", "cache_lookup", "coalesce",
		"queue_wait", "evaluate", "compute", "encode", "rebuild", "purge"}
	names := StageNames()
	if len(names) != len(want) || len(names) != int(NumStages) {
		t.Fatalf("StageNames() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stage %d named %q, want %q", i, names[i], want[i])
		}
	}
}

// BenchmarkTraceRecord pins the hot-path claim: recording a span into a
// pooled trace allocates nothing.
func BenchmarkTraceRecord(b *testing.B) {
	tr := NewTracer(0)
	tc := tr.Start("evaluate")
	defer tr.Release(tc)
	base := tc.Begin
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.n = 0
		tc.Record(StageEvaluate, base, time.Millisecond)
	}
}
