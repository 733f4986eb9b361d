package nwst

import "testing"

// TestTrajectoryMemoKeys: keys are read through the caller's byte
// buffer, so a caller may reuse one buffer for every key. A recorded key
// owns a copy of its bytes, a lookup and a publish of a recorded key
// allocate nothing, and the frontier rule holds.
func TestTrajectoryMemoKeys(t *testing.T) {
	m := NewTrajectoryMemo()
	buf := AppendTrajectoryKey(nil, []int{0, 3, 5}, []bool{true, false, false})
	m.Publish(buf, 1, TrajectoryStep{Kind: StepFail}) // a hole: dropped
	if m.Len() != 0 {
		t.Fatalf("a publish past the frontier recorded a key")
	}
	m.Publish(buf, 0, TrajectoryStep{Kind: StepSpider})
	m.Publish(buf, 1, TrajectoryStep{Kind: StepPath})
	m.Publish(buf, 1, TrajectoryStep{Kind: StepFail}) // already recorded: dropped

	// Reusing the buffer for another key leaves the recorded one intact.
	other := AppendTrajectoryKey(buf[:0], []int{0, 3, 5}, []bool{false, false, false})
	if got := m.Lookup(other); got != nil {
		t.Fatalf("free flags ignored: %v", got)
	}
	key := AppendTrajectoryKey(other[:0], []int{0, 3, 5}, []bool{true, false, false})
	got := m.Lookup(key)
	if len(got) != 2 || got[0].Kind != StepSpider || got[1].Kind != StepPath {
		t.Fatalf("recorded steps %v, want spider then path", got)
	}

	if a := testing.AllocsPerRun(100, func() { m.Lookup(key) }); a != 0 {
		t.Errorf("Lookup allocates %v times", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.Publish(key, 0, TrajectoryStep{Kind: StepSpider}) }); a != 0 {
		t.Errorf("a publish of a recorded step allocates %v times", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		key = AppendTrajectoryKey(key[:0], []int{0, 3, 5}, []bool{true, false, false})
	}); a != 0 {
		t.Errorf("encoding into a large enough buffer allocates %v times", a)
	}
}
