package wireless

import (
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/geom"
	"wmcs/internal/graph"
)

// testSymmetric builds a small abstract symmetric network with distinct
// off-diagonal costs.
func testSymmetric(n int) *Network {
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, float64(1+i*n+j))
		}
	}
	return NewSymmetric(m, 0)
}

func testEuclidean(n, dim int) *Network {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return NewEuclidean(pts, geom.NewPowerCost(2), 0)
}

func TestSetCostSymmetricAndVersion(t *testing.T) {
	nw := testSymmetric(5)
	if nw.Version() != 0 {
		t.Fatalf("fresh network version %d, want 0", nw.Version())
	}
	if _, err := nw.SetCost(1, 3, 42.5); err != nil {
		t.Fatal(err)
	}
	if nw.C(1, 3) != 42.5 || nw.C(3, 1) != 42.5 {
		t.Fatalf("SetCost not symmetric: %g / %g", nw.C(1, 3), nw.C(3, 1))
	}
	if nw.Version() != 1 {
		t.Fatalf("version %d after one op, want 1", nw.Version())
	}
	for _, bad := range []struct {
		i, j int
		w    float64
	}{
		{1, 1, 5},           // diagonal
		{-1, 2, 5},          // out of range
		{0, 5, 5},           // out of range
		{0, 1, -2},          // negative
		{0, 1, math.NaN()},  // NaN
		{0, 1, math.Inf(1)}, // Inf
	} {
		if _, err := nw.SetCost(bad.i, bad.j, bad.w); err == nil {
			t.Errorf("SetCost(%d,%d,%g) accepted", bad.i, bad.j, bad.w)
		}
	}
	if nw.Version() != 1 {
		t.Fatalf("failed ops bumped the version to %d", nw.Version())
	}
	// Euclidean networks refuse direct cost mutation.
	if _, err := testEuclidean(4, 2).SetCost(1, 2, 3); err == nil {
		t.Fatal("SetCost accepted on a Euclidean network")
	}
}

func TestMoveStationRecomputesRow(t *testing.T) {
	nw := testEuclidean(6, 2)
	dst := geom.Point{1.25, -3.5}
	if _, err := nw.MoveStation(2, dst); err != nil {
		t.Fatal(err)
	}
	if !nw.Points()[2].Equal(dst) {
		t.Fatalf("point not moved: %v", nw.Points()[2])
	}
	pc := nw.PowerModel()
	for j := 0; j < nw.N(); j++ {
		if j == 2 {
			continue
		}
		want := pc.Cost(dst, nw.Points()[j])
		if nw.C(2, j) != want || nw.C(j, 2) != want {
			t.Fatalf("cost (2,%d) = %g / %g, want %g", j, nw.C(2, j), nw.C(j, 2), want)
		}
	}
	if nw.Version() != 1 {
		t.Fatalf("version %d, want 1", nw.Version())
	}
	// Class-preserving validation.
	if _, err := nw.MoveStation(2, geom.Point{1}); err == nil {
		t.Fatal("dimension change accepted")
	}
	if _, err := nw.MoveStation(2, geom.Point{math.NaN(), 0}); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	if _, err := nw.MoveStation(9, dst); err == nil {
		t.Fatal("out-of-range station accepted")
	}
	// A move whose costs reach the disabled-station sentinel (1e5² =
	// 1e10) or overflow to +Inf (1e200²) is rejected and changes nothing.
	before := nw.Snapshot()
	for _, far := range []geom.Point{{1e5, 0}, {1e200, 0}} {
		if _, err := nw.MoveStation(2, far); err == nil {
			t.Fatalf("move to %v accepted", far)
		}
	}
	if !nw.Points()[2].Equal(dst) || nw.Version() != 1 {
		t.Fatalf("rejected far moves changed the network: point %v, version %d", nw.Points()[2], nw.Version())
	}
	for j := 0; j < nw.N(); j++ {
		if nw.C(2, j) != before.C(2, j) || nw.C(j, 2) != before.C(j, 2) {
			t.Fatalf("rejected far moves changed cost (2,%d): %g, was %g", j, nw.C(2, j), before.C(2, j))
		}
	}
	if _, err := testSymmetric(4).MoveStation(1, geom.Point{0, 0}); err == nil {
		t.Fatal("MoveStation accepted on an abstract network")
	}
}

func TestDisableEnableRoundTrip(t *testing.T) {
	nw := testSymmetric(5)
	orig := nw.Snapshot()
	if _, err := nw.SetStationEnabled(3, false); err != nil {
		t.Fatal(err)
	}
	if nw.StationEnabled(3) {
		t.Fatal("station 3 still enabled")
	}
	for j := 0; j < nw.N(); j++ {
		if j != 3 && nw.C(3, j) != DisabledCost {
			t.Fatalf("cost (3,%d) = %g, want DisabledCost", j, nw.C(3, j))
		}
	}
	// Costs not incident to 3 are untouched.
	if nw.C(1, 2) != orig.C(1, 2) {
		t.Fatal("unrelated cost changed")
	}
	// Mutations touching a disabled station are rejected.
	if _, err := nw.SetCost(3, 1, 7); err == nil {
		t.Fatal("SetCost accepted on a disabled station")
	}
	if _, err := nw.SetStationEnabled(3, false); err == nil {
		t.Fatal("double disable accepted")
	}
	if _, err := nw.SetStationEnabled(0, false); err == nil {
		t.Fatal("source disable accepted")
	}
	if _, err := nw.SetStationEnabled(3, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nw.N(); i++ {
		for j := 0; j < nw.N(); j++ {
			if nw.C(i, j) != orig.C(i, j) {
				t.Fatalf("cost (%d,%d) = %g after re-enable, want %g", i, j, nw.C(i, j), orig.C(i, j))
			}
		}
	}
	if _, err := nw.SetStationEnabled(3, true); err == nil {
		t.Fatal("double enable accepted")
	}
	if nw.Version() != 2 {
		t.Fatalf("version %d, want 2 (disable + enable)", nw.Version())
	}
}

// TestOverlappingDisableWindowsRestoreExactly is the regression for the
// phantom-edge bug: disabling station 4 while 3 was already down used
// to save C(3,4) = DisabledCost as if it were a real cost, so enabling
// both (in either order) corrupted the matrix permanently — and
// enabling 3 while 4 stayed down restored a finite edge toward a dead
// station. Every enable/disable interleaving must land back on the
// original matrix once everyone is up, and a down station's edges must
// read DisabledCost throughout.
func TestOverlappingDisableWindowsRestoreExactly(t *testing.T) {
	for _, order := range [][]int{{3, 4}, {4, 3}} {
		nw := testSymmetric(6)
		orig := nw.Snapshot()
		for _, s := range []int{3, 4} {
			if _, err := nw.SetStationEnabled(s, false); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nw.SetStationEnabled(order[0], true); err != nil {
			t.Fatal(err)
		}
		// One station still down: every edge incident to it stays at
		// the sentinel, including toward the freshly revived one.
		for j := 0; j < nw.N(); j++ {
			if j != order[1] && nw.C(order[1], j) != DisabledCost {
				t.Fatalf("order %v: edge (%d,%d) = %g while %d is down",
					order, order[1], j, nw.C(order[1], j), order[1])
			}
		}
		if _, err := nw.SetStationEnabled(order[1], true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nw.N(); i++ {
			for j := 0; j < nw.N(); j++ {
				if nw.C(i, j) != orig.C(i, j) {
					t.Fatalf("order %v: cost (%d,%d) = %g after full recovery, want %g",
						order, i, j, nw.C(i, j), orig.C(i, j))
				}
			}
		}
	}
}

func TestMoveWhileNeighborDisabledPatchesSavedRow(t *testing.T) {
	// Moving station i while j is disabled must leave j's live row at
	// DisabledCost but update j's *saved* cost to the post-move value,
	// so re-enabling restores geometry-coherent costs.
	nw := testEuclidean(5, 2)
	if _, err := nw.SetStationEnabled(4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.MoveStation(1, geom.Point{9, 9}); err != nil {
		t.Fatal(err)
	}
	if nw.C(1, 4) != DisabledCost {
		t.Fatalf("live cost to disabled neighbor %g, want DisabledCost", nw.C(1, 4))
	}
	if _, err := nw.SetStationEnabled(4, true); err != nil {
		t.Fatal(err)
	}
	want := nw.PowerModel().Cost(nw.Points()[1], nw.Points()[4])
	if nw.C(1, 4) != want || nw.C(4, 1) != want {
		t.Fatalf("re-enabled cost %g / %g, want %g (post-move geometry)", nw.C(1, 4), nw.C(4, 1), want)
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	nw := testSymmetric(4)
	if _, err := nw.SetStationEnabled(2, false); err != nil {
		t.Fatal(err)
	}
	snap := nw.Snapshot()
	if snap.Version() != nw.Version() || snap.StationEnabled(2) {
		t.Fatalf("snapshot state: version %d enabled(2)=%v", snap.Version(), snap.StationEnabled(2))
	}
	if _, err := nw.SetCost(0, 1, 99); err != nil {
		t.Fatal(err)
	}
	if snap.C(0, 1) == 99 {
		t.Fatal("mutation leaked into the snapshot")
	}
	if _, err := snap.SetStationEnabled(2, true); err != nil {
		t.Fatal(err)
	}
	if nw.StationEnabled(2) {
		t.Fatal("snapshot mutation leaked into the original")
	}
	// Euclidean snapshots clone the points.
	e := testEuclidean(4, 2)
	esnap := e.Snapshot()
	if _, err := e.MoveStation(1, geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if esnap.Points()[1].Equal(e.Points()[1]) {
		t.Fatal("move leaked into the snapshot's points")
	}
}

// TestDisabledStationIsUnattractive pins the semantic point of the
// DisabledCost model: a disabled station stops being a useful relay
// (every route through it costs ≥ 1e9), so multicast heuristics route
// around it.
func TestDisabledStationIsUnattractive(t *testing.T) {
	nw := testSymmetric(6)
	if _, err := nw.SetStationEnabled(4, false); err != nil {
		t.Fatal(err)
	}
	R := []int{1, 2, 3, 5}
	tr, a := SteinerMulticast(nw, R)
	if !tr.Spans(R) {
		t.Fatal("Steiner tree does not span R")
	}
	if a.Total() >= DisabledCost {
		t.Fatalf("multicast routed through the disabled station (cost %g)", a.Total())
	}
}
