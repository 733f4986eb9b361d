package wireless

// Delta is the typed change record of a mutation-op sequence: which cost
// rows may differ from the pre-mutation state and whether the enabled
// node set changed. Its consumer, the versioned evaluator's incremental
// reduction rebuild (DESIGN.md §12), treats it as a sound
// over-approximation — a row a Delta marks clean is *guaranteed*
// byte-unchanged; a row it marks dirty merely may have changed.
//
// The row contract is preserved under Merge: cost entry c(a, b) may
// differ only if DirtyRows[a] && DirtyRows[b] — the entry lies in both
// rows, so either row being provably clean pins it.
//
// Per op: SetCost(i, j) dirties rows {i, j}; MoveStation(i) and
// SetStationEnabled(i) dirty every row (column i changes in each);
// SetStationEnabled additionally sets NodeSetChanged. A no-op (SetCost
// writing the present value, MoveStation to the current point)
// contributes an empty Delta and bumps nothing.
type Delta struct {
	// N is the station count DirtyRows is indexed by (0 for an empty
	// delta).
	N int
	// DirtyRows[r] reports that cost row r may differ. nil means no row
	// is dirty.
	DirtyRows []bool
	// NodeSetChanged reports that a station was enabled or disabled.
	NodeSetChanged bool
	// Ops counts the non-no-op mutations merged in — exactly the version
	// bumps the sequence performed.
	Ops int
}

// Empty reports whether the delta records no effective mutation.
func (d Delta) Empty() bool { return d.Ops == 0 }

// DirtyRowCount returns the number of dirty rows.
func (d Delta) DirtyRowCount() int {
	c := 0
	for _, b := range d.DirtyRows {
		if b {
			c++
		}
	}
	return c
}

// AllRowsDirty reports whether every row is dirty (nothing row-level to
// reuse).
func (d Delta) AllRowsDirty() bool {
	return d.N > 0 && d.DirtyRowCount() == d.N
}

// Merge accumulates another delta into d. Unions are sound: an entry
// changed by the sequence was changed by some op, whose own flags (a
// subset of the union's) already admitted it.
func (d *Delta) Merge(o Delta) {
	if o.Empty() {
		return
	}
	if d.N == 0 {
		d.N = o.N
	}
	if o.DirtyRows != nil {
		if d.DirtyRows == nil {
			d.DirtyRows = make([]bool, d.N)
		}
		for r, b := range o.DirtyRows {
			if b {
				d.DirtyRows[r] = true
			}
		}
	}
	d.NodeSetChanged = d.NodeSetChanged || o.NodeSetChanged
	d.Ops += o.Ops
}

// rowsDelta builds a single-op delta dirtying the given rows, or every
// row when rows is nil (a column write reaches every row).
func (nw *Network) rowsDelta(rows []int, nodeSet bool) Delta {
	n := nw.N()
	d := Delta{N: n, NodeSetChanged: nodeSet, Ops: 1, DirtyRows: make([]bool, n)}
	if rows == nil {
		for r := range d.DirtyRows {
			d.DirtyRows[r] = true
		}
	}
	for _, r := range rows {
		d.DirtyRows[r] = true
	}
	return d
}

// record merges an op's delta into the network's pending accumulator and
// bumps the version; it returns the op delta for the caller.
func (nw *Network) record(d Delta) Delta {
	nw.version++
	nw.pending.Merge(d)
	return d
}

// TakeDelta returns the delta accumulated by mutation ops since the last
// TakeDelta (or since construction/Snapshot — a snapshot starts with a
// clean accumulator) and resets the accumulator. The versioned evaluator
// drains it once per Update closure.
func (nw *Network) TakeDelta() Delta {
	d := nw.pending
	nw.pending = Delta{}
	return d
}
