package wireless

import (
	"fmt"
	"math"

	"wmcs/internal/geom"
)

// This file is the network lifecycle surface (DESIGN.md §10): the
// paper's mechanisms are defined over a fixed network, but the ad-hoc
// deployments the model describes churn — stations move (mobility),
// radios degrade (battery drain), stations die and come back. The
// mutation ops below change a network *in place* while keeping every
// class invariant the mechanism registry relies on:
//
//   - the class never changes: a Euclidean network stays Euclidean with
//     the same dimension and power model (mutate it by moving stations,
//     which recomputes the affected cost row from the model), and an
//     abstract symmetric network stays abstract (mutate its costs
//     directly);
//   - the cost matrix stays symmetric with a zero diagonal;
//   - station count and source are immutable — "churn" in a fixed-id
//     model is enable/disable, not add/remove.
//
// Every successful mutation bumps a monotonic version counter, which is
// what the versioned query evaluator (internal/query) and the serving
// layer's generation-prefixed cache keys key off. A Network is NOT safe
// for concurrent mutation: callers that share one (the serving
// registry) must serialize mutations and hand read paths an immutable
// Snapshot.

// DisabledCost is the transmission cost installed on every edge of a
// disabled station: large enough that no multicast solution routes
// through a dead station or serves it under any sane utility, small
// enough that sums over n stations stay far from float64 overflow.
const DisabledCost = 1e9

// Version returns the mutation counter: 0 for a freshly built network,
// incremented by every successful mutation op. Snapshot preserves it.
func (nw *Network) Version() uint64 { return nw.version }

// StationEnabled reports whether station i is enabled (every station
// starts enabled; only SetStationEnabled changes it).
func (nw *Network) StationEnabled(i int) bool {
	return nw.savedRows == nil || nw.savedRows[i] == nil
}

// Snapshot returns an independent deep copy: later mutations of either
// network cannot be observed through the other. It is how the versioned
// evaluator freezes the state a query generation evaluates against.
func (nw *Network) Snapshot() *Network {
	c := &Network{
		cost:    nw.cost.Clone(),
		source:  nw.source,
		pc:      nw.pc,
		version: nw.version,
	}
	if nw.points != nil {
		c.points = make([]geom.Point, len(nw.points))
		for i, p := range nw.points {
			c.points[i] = p.Clone()
		}
	}
	if nw.savedRows != nil {
		c.savedRows = make(map[int][]float64, len(nw.savedRows))
		for i, row := range nw.savedRows {
			c.savedRows[i] = append([]float64(nil), row...)
		}
	}
	return c
}

// checkStation validates a station index for a mutation op.
func (nw *Network) checkStation(op string, i int) error {
	if i < 0 || i >= nw.N() {
		return fmt.Errorf("wireless: %s: station %d out of range [0, %d)", op, i, nw.N())
	}
	return nil
}

// checkEnabled rejects mutation ops touching a disabled station (its
// saved row would go stale; re-enable it first).
func (nw *Network) checkEnabled(op string, i int) error {
	if !nw.StationEnabled(i) {
		return fmt.Errorf("wireless: %s: station %d is disabled", op, i)
	}
	return nil
}

// SetCost assigns the symmetric transmission cost c(i, j) = c(j, i) = w
// and bumps the version, returning the op's Delta (rows {i, j}). It
// applies to abstract symmetric networks only: on a Euclidean network
// costs are a function of the geometry and mutating one directly would
// silently desynchronize the matrix from the coordinates the α = 1 and
// d = 1 mechanisms read — move stations instead (MoveStation). Writing
// the value already present is a true no-op: no version bump, empty
// delta, so the serving layer retires nothing.
func (nw *Network) SetCost(i, j int, w float64) (Delta, error) {
	if nw.IsEuclidean() {
		return Delta{}, fmt.Errorf("wireless: SetCost: network is Euclidean; costs follow the geometry (use MoveStation)")
	}
	if err := nw.checkStation("SetCost", i); err != nil {
		return Delta{}, err
	}
	if err := nw.checkStation("SetCost", j); err != nil {
		return Delta{}, err
	}
	if i == j {
		return Delta{}, fmt.Errorf("wireless: SetCost: diagonal (%d,%d) is fixed at 0", i, j)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return Delta{}, fmt.Errorf("wireless: SetCost(%d,%d): cost %g is not finite and nonnegative", i, j, w)
	}
	if err := nw.checkEnabled("SetCost", i); err != nil {
		return Delta{}, err
	}
	if err := nw.checkEnabled("SetCost", j); err != nil {
		return Delta{}, err
	}
	if nw.cost.At(i, j) == w && nw.cost.At(j, i) == w {
		return Delta{}, nil
	}
	nw.cost.Set(i, j, w)
	return nw.record(nw.rowsDelta([]int{i, j}, false)), nil
}

// MoveStation relocates station i to p and recomputes its cost row from
// the power model, keeping the matrix coherent with the coordinates. It
// applies to Euclidean networks only and requires p to match the
// network's dimension (a move cannot change the class). The returned
// Delta dirties every row (column i changes in each). Moving a station
// to its current coordinates is a true no-op: no
// version bump, empty delta. A move that would put any cost of the row,
// a disabled neighbor's saved one included, at or above DisabledCost is
// rejected and changes nothing.
func (nw *Network) MoveStation(i int, p geom.Point) (Delta, error) {
	if !nw.IsEuclidean() {
		return Delta{}, fmt.Errorf("wireless: MoveStation: network is abstract (no coordinates; use SetCost)")
	}
	if err := nw.checkStation("MoveStation", i); err != nil {
		return Delta{}, err
	}
	if p.Dim() != nw.Dim() {
		return Delta{}, fmt.Errorf("wireless: MoveStation: point has dimension %d, network is %d-dimensional", p.Dim(), nw.Dim())
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Delta{}, fmt.Errorf("wireless: MoveStation: coordinate %g is not finite", v)
		}
	}
	if err := nw.checkEnabled("MoveStation", i); err != nil {
		return Delta{}, err
	}
	if nw.points[i].Equal(p) {
		return Delta{}, nil
	}
	// Price the moved row before writing anything, and refuse a move
	// whose costs would reach the disabled-station sentinel, the bound
	// instances.Spec.Build enforces at registration.
	row := make([]float64, nw.N())
	for j := range row {
		if j == i {
			continue
		}
		row[j] = nw.pc.Cost(p, nw.points[j])
		if !(row[j] < DisabledCost) {
			return Delta{}, fmt.Errorf("wireless: MoveStation: cost c(%d,%d) = %g at %v is not below DisabledCost (%g)", i, j, row[j], p, DisabledCost)
		}
	}
	nw.points[i] = p.Clone()
	for j, c := range row {
		if j == i {
			continue
		}
		if nw.StationEnabled(j) {
			nw.cost.Set(i, j, c)
		} else {
			// The disabled neighbor's row keeps DisabledCost; patch its
			// *saved* cost so re-enabling restores the post-move value.
			nw.savedRows[j][i] = c
		}
	}
	return nw.record(nw.rowsDelta(nil, false)), nil
}

// SetStationEnabled turns station i off (every incident cost becomes
// DisabledCost, so no solution routes through it and no sane utility
// buys it service) or back on (the pre-disable costs are restored; on a
// Euclidean network those track any moves made in the meantime).
// Toggling to the current state is an error — churn drivers replaying
// delta streams want double-disables surfaced, not absorbed. The source
// cannot be disabled: every multicast is rooted there.
func (nw *Network) SetStationEnabled(i int, enabled bool) (Delta, error) {
	if err := nw.checkStation("SetStationEnabled", i); err != nil {
		return Delta{}, err
	}
	if enabled {
		row := nw.savedRows[i]
		if row == nil {
			return Delta{}, fmt.Errorf("wireless: SetStationEnabled: station %d is already enabled", i)
		}
		for j := 0; j < nw.N(); j++ {
			if j == i {
				continue
			}
			if nw.StationEnabled(j) {
				nw.cost.Set(i, j, row[j])
			} else {
				// The neighbor is still down: its edges stay at
				// DisabledCost, and its own saved row already carries
				// the true cost for when it comes back.
				nw.cost.Set(i, j, DisabledCost)
			}
		}
		delete(nw.savedRows, i)
		return nw.record(nw.rowsDelta(nil, true)), nil
	}
	if i == nw.source {
		return Delta{}, fmt.Errorf("wireless: SetStationEnabled: cannot disable the source station %d", i)
	}
	if !nw.StationEnabled(i) {
		return Delta{}, fmt.Errorf("wireless: SetStationEnabled: station %d is already disabled", i)
	}
	row := make([]float64, nw.N())
	for j := 0; j < nw.N(); j++ {
		if j == i {
			continue
		}
		if nw.StationEnabled(j) {
			row[j] = nw.cost.At(i, j)
		} else {
			// The live matrix holds DisabledCost toward a down
			// neighbor; the true cost lives in that neighbor's saved
			// row. Saving the sentinel here would resurrect a phantom
			// 1e9 edge when both stations come back (disable {3,4},
			// enable {3,4} used to corrupt C(3,4) permanently).
			row[j] = nw.savedRows[j][i]
		}
		nw.cost.Set(i, j, DisabledCost)
	}
	if nw.savedRows == nil {
		nw.savedRows = make(map[int][]float64)
	}
	nw.savedRows[i] = row
	return nw.record(nw.rowsDelta(nil, true)), nil
}
