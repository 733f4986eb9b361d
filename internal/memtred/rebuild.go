package memtred

import (
	"slices"

	"wmcs/internal/wireless"
)

// Rebuild constructs the reduction for nw from prev, laying out again
// only the stations whose cost rows the delta marks dirty: it is New's
// construction (build) given a donor, which shares every adjacency list
// whose thresholds did not move. It returns nil when no profitable
// reuse is possible, and the caller falls back to New: no donor, a
// different station count, no row dirty (the caller should keep prev)
// or every row dirty (nothing to reuse), or a dirty station whose level
// count changed (the output ids would shift). The result is New(nw)
// node for node and list for list, which TestRebuildMatchesNew pins by
// deep equality, so every consumer downstream (instances, extraction,
// the wireless mechanism) is byte-identical by construction (DESIGN.md
// §12.2).
func Rebuild(prev *Reduction, nw *wireless.Network, dirtyRows []bool) *Reduction {
	n := nw.N()
	if prev == nil || prev.Net.N() != n || len(dirtyRows) != n {
		return nil
	}
	if !slices.Contains(dirtyRows, true) || !slices.Contains(dirtyRows, false) {
		return nil
	}
	return build(nw, prev, dirtyRows)
}
