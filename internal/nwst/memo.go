package nwst

import (
	"encoding/binary"
	"sync"
)

// This file implements the trajectory memo behind the E6/serving hot
// path. The observation (DESIGN.md §11): the shrink-greedy spider
// trajectory of the §2.2.2 mechanism — which spider the oracle picks at
// each step, and the final two-terminal path — depends only on the
// contraction state, which in turn depends only on the terminal set the
// run started from. The reported utility profile decides *acceptance*:
// either every covered terminal affords the ratio and the state evolves
// exactly as the oracle dictates, or someone cannot pay and the whole
// attempt aborts (the mechanism restarts on a smaller terminal set,
// which is a different memo key). So for a fixed terminal set the
// spider sequence is one deterministic trajectory, and every re-run —
// a deviation probe in CheckStrategyproof, a repeat query against the
// serving layer, a Moulin–Shenker restart that returns to a set seen
// before — can replay recorded spiders instead of re-running the
// oracle's Dijkstra sweeps, byte-identically: the stored spiders are
// the exact structs a fresh run would compute.

// TrajectoryStepKind classifies one recorded step of a spider
// trajectory.
type TrajectoryStepKind uint8

const (
	// StepSpider is an oracle-chosen spider (three or more live
	// terminals at the time).
	StepSpider TrajectoryStepKind = iota
	// StepPath is the two-terminal endgame: the optimal connecting path
	// wrapped as a degenerate spider.
	StepPath
	// StepFail records that the trajectory dead-ends here: the oracle
	// found no spider, or the last two terminals are disconnected.
	StepFail
)

// TrajectoryStep is one recorded step. Spider is meaningful for
// StepSpider and StepPath and must be treated as immutable: replayers
// and the recording run share the same backing slices.
type TrajectoryStep struct {
	Kind   TrajectoryStepKind
	Spider Spider
}

// TrajectoryKey encodes a terminal set with its free flags as a memo
// key. Callers must present terminals in a deterministic order (the
// mechanism's: free terminals in instance order, then paying terminals
// sorted) — the key is positional, which is exactly what makes equal
// runs collide and unequal runs not.
func TrajectoryKey(terms []int, free []bool) string {
	buf := make([]byte, 0, 2*len(terms)+4)
	for i, t := range terms {
		v := uint64(t) << 1
		if free[i] {
			v |= 1
		}
		buf = binary.AppendUvarint(buf, v)
	}
	return string(buf)
}

// defaultTrajectoryEntries bounds a memo's distinct terminal sets. The
// mechanism's keys are the active sets visited by Moulin–Shenker drop
// loops and deviation probes — dozens per network in practice; the cap
// only exists so an adversarial query stream cannot grow the table
// without bound. At the cap, new keys run unmemoized (correct, just
// not accelerated).
const defaultTrajectoryEntries = 1 << 14

// TrajectoryMemo records spider trajectories per terminal-set key. It
// is safe for concurrent use; concurrent runs of the same key publish
// identical steps (the trajectory is deterministic), so later
// publishes of an already-recorded index are dropped.
//
// Lifetime contract (DESIGN.md §11): a memo belongs to one mechanism
// instance, which belongs to one evaluator generation. Rebuilding the
// evaluator — which is what query.VersionedEvaluator.Update does on
// every network delta — builds new mechanisms and with them fresh,
// empty memos, so no recorded spider can survive a version bump.
type TrajectoryMemo struct {
	mu      sync.Mutex
	entries map[string][]TrajectoryStep
}

// NewTrajectoryMemo builds an empty memo.
func NewTrajectoryMemo() *TrajectoryMemo {
	return &TrajectoryMemo{entries: make(map[string][]TrajectoryStep)}
}

// Lookup returns the recorded prefix for a key. The returned slice is
// a stable snapshot: publishers append (never mutate in place), so a
// reader's view stays valid while the trajectory grows behind it.
func (m *TrajectoryMemo) Lookup(key string) []TrajectoryStep {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[key]
}

// Publish records step idx of a key's trajectory. Only the next
// unrecorded index is accepted — earlier indices are already recorded
// (identically, by determinism) and later ones would leave a hole; a
// run that computed past another publisher's frontier re-publishes
// step by step, so the frontier only ever advances by one.
func (m *TrajectoryMemo) Publish(key string, idx int, step TrajectoryStep) {
	m.mu.Lock()
	defer m.mu.Unlock()
	steps, ok := m.entries[key]
	if !ok && len(m.entries) >= defaultTrajectoryEntries {
		return
	}
	if len(steps) == idx {
		m.entries[key] = append(steps, step)
	}
}

// Len reports the number of recorded keys (observability and tests).
func (m *TrajectoryMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
