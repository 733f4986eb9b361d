package main

import (
	"io"
	"path/filepath"
	"testing"
)

// small is w shrunk to reads reads per client and one setup.
func small(t *testing.T, name string, reads int) *inputs {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *w
	s.nominalQPS, s.minReads, s.setups = 0, reads*clients, 1
	in, err := generate(&s, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestWorkloadsRunClean drives every workload end to end at a small size:
// no operation may fail and every answer must verify.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	for name, reads := range map[string]int{"hot-read": 400, "cold-compute": 10, "churn": 400} {
		t.Run(name, func(t *testing.T) {
			in := small(t, name, reads)
			res, err := pass(in, passOpts{setups: 2, verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %s", res.failed, res.attempted, res.firstErr)
			}
			if got, want := len(res.reads), reads*clients; got != want {
				t.Errorf("%d successful reads, want %d", got, want)
			}
			if len(res.updates) == 0 || len(res.updates)+len(res.reads) != res.attempted {
				t.Errorf("%d updates and %d reads of %d operations", len(res.updates), len(res.reads), res.attempted)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	in := small(t, "churn", 400)
	ms, res, err := tracedRun(in, io.Discard, filepath.Join(t.TempDir(), "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d operations failed; first: %s", res.failed, res.firstErr)
	}
	if err := checkComplete(ms, perLayer); err != nil {
		t.Fatal(err)
	}
}
