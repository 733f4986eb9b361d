package wireless

import (
	"testing"
)

// The no-op regressions: an op that writes the value already present
// must contribute nothing — no version bump, no pending delta — so the
// serving layer retires no cache and swaps no evaluator for it.

func TestSetCostSameValueIsNoOp(t *testing.T) {
	nw := testSymmetric(5)
	d, err := nw.SetCost(1, 3, nw.C(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("same-value SetCost returned a non-empty delta: %+v", d)
	}
	if nw.Version() != 0 {
		t.Fatalf("same-value SetCost bumped the version to %d", nw.Version())
	}
	if got := nw.TakeDelta(); !got.Empty() {
		t.Fatalf("same-value SetCost left a pending delta: %+v", got)
	}
}

func TestMoveStationSamePointIsNoOp(t *testing.T) {
	nw := testEuclidean(5, 2)
	d, err := nw.MoveStation(2, nw.Points()[2].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("same-point MoveStation returned a non-empty delta: %+v", d)
	}
	if nw.Version() != 0 {
		t.Fatalf("same-point MoveStation bumped the version to %d", nw.Version())
	}
	if got := nw.TakeDelta(); !got.Empty() {
		t.Fatalf("same-point MoveStation left a pending delta: %+v", got)
	}
}

// TestDeltaShapePerOp pins each op's declared flags: SetCost dirties
// rows {i, j}; MoveStation dirties every row; SetStationEnabled dirties
// every row and adds NodeSetChanged.
func TestDeltaShapePerOp(t *testing.T) {
	nw := testSymmetric(5)
	d, err := nw.SetCost(1, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ops != 1 || d.NodeSetChanged || d.DirtyRowCount() != 2 || !d.DirtyRows[1] || !d.DirtyRows[3] {
		t.Fatalf("SetCost delta: %+v", d)
	}

	ew := testEuclidean(5, 2)
	p := ew.Points()[2].Clone()
	p[0] += 0.25
	d, err = ew.MoveStation(2, p)
	if err != nil {
		t.Fatal(err)
	}
	if !d.AllRowsDirty() || d.NodeSetChanged {
		t.Fatalf("MoveStation delta: %+v", d)
	}

	d, err = ew.SetStationEnabled(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.NodeSetChanged || !d.AllRowsDirty() {
		t.Fatalf("SetStationEnabled delta: %+v", d)
	}
}

// TestTakeDeltaAccumulatesAndResets: ops merge into one pending delta
// (union flags, summed ops), draining resets it, and a Snapshot starts
// with a clean accumulator even when the parent has pending ops.
func TestTakeDeltaAccumulatesAndResets(t *testing.T) {
	nw := testSymmetric(6)
	if _, err := nw.SetCost(0, 1, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.SetCost(2, 3, 60); err != nil {
		t.Fatal(err)
	}
	snap := nw.Snapshot()
	if got := snap.TakeDelta(); !got.Empty() {
		t.Fatalf("snapshot inherited a pending delta: %+v", got)
	}
	d := nw.TakeDelta()
	if d.Ops != 2 || d.DirtyRowCount() != 4 {
		t.Fatalf("accumulated delta: %+v", d)
	}
	for _, r := range []int{0, 1, 2, 3} {
		if !d.DirtyRows[r] {
			t.Fatalf("row %d not dirty in %+v", r, d)
		}
	}
	if d.DirtyRows[4] || d.DirtyRows[5] {
		t.Fatalf("clean rows marked dirty: %+v", d)
	}
	if got := nw.TakeDelta(); !got.Empty() {
		t.Fatalf("TakeDelta did not reset the accumulator: %+v", got)
	}
}
