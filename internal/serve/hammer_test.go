package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
)

// TestConcurrentPatchHammer is the -race hammer for PATCH swaps: a
// writer drives a PATCH stream of disable+enable round trips (ops that
// cancel out but still retire the version) and moves of one station
// away and back, outside one alpha1-shapley probe's support and inside
// another's, while readers hit /v1/evaluate and /v1/batch concurrently
// at evaluation widths 8 and 16. Every version-labeled response must be
// byte-identical to a cold evaluation at exactly that version (an entry
// served across a version boundary or a torn {evaluator, version} pair
// surfaces as a mismatch), and every batch element must match some
// committed version's bytes.
func TestConcurrentPatchHammer(t *testing.T) {
	for _, workers := range []int{8, 16} {
		t.Run(fmt.Sprintf("width%d", workers), func(t *testing.T) {
			hammerOnce(t, workers)
		})
	}
}

func hammerOnce(t *testing.T, workers int) {
	const (
		n       = 8
		moved   = 4
		rounds  = 3 // each round: round trip + move out + move back
		readers = 4
		queries = 18
	)
	sp := instances.Spec{Name: "hammer", Scenario: "uniform", N: n, Alpha: 1, Seed: 53}
	reg := NewRegistry()
	reg.SetParallel(workers) // before registration, as wmcsd does
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	entry, _ := reg.Get("hammer")
	src := entry.Net.Source()

	outside := profileFor(n, src, 9)
	outside[moved] = 0
	inside := profileFor(n, src, 9)
	probes := []EvalRequest{
		{Network: "hammer", Mech: mechreg.Alpha1Shapley, Profile: outside},
		{Network: "hammer", Mech: mechreg.Alpha1Shapley, Profile: inside},
		{Network: "hammer", Mech: mechreg.UniversalMC, Profile: outside},
	}

	// The update stream, and per committed version the expected bytes of
	// every probe (computed on an independent replica).
	home := entry.Net.Points()[moved].Clone()
	away := home.Clone()
	away[0] += 0.3
	var updates []instances.Update
	for r := 0; r < rounds; r++ {
		updates = append(updates,
			instances.Update{Disable: []int{3}, Enable: []int{3}},
			instances.Update{Moves: []instances.MoveOp{{Station: moved, Point: away.Clone()}}},
			instances.Update{Moves: []instances.MoveOp{{Station: moved, Point: home.Clone()}}},
		)
	}
	replica, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	expected := map[string][]byte{} // "version/probeIdx" -> bytes
	record := func() {
		snap := replica.Snapshot()
		ev := query.NewEvaluator(snap)
		for pi, req := range probes {
			c, err := Canonicalize(req, n, src)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ev.Mechanism(req.Mech)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EncodeOutcome("hammer", req.Mech, m.Run(c.Profile))
			if err != nil {
				t.Fatal(err)
			}
			expected[fmt.Sprintf("%d/%d", snap.Version(), pi)] = b
		}
	}
	record()
	for _, up := range updates {
		if err := up.Apply(replica); err != nil {
			t.Fatal(err)
		}
		record()
	}
	// Any served bytes must be in the per-probe committed set — the
	// weaker invariant /v1/batch elements (no version header) satisfy.
	anyVersion := make([]map[string]bool, len(probes))
	for pi := range probes {
		anyVersion[pi] = make(map[string]bool)
	}
	for key, b := range expected {
		var ver uint64
		var pi int
		fmt.Sscanf(key, "%d/%d", &ver, &pi)
		anyVersion[pi][string(b)] = true
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for _, up := range updates {
			if w := do(t, s, "PATCH", "/v1/networks/hammer", up); w.Code != http.StatusOK {
				t.Errorf("PATCH: %d %s", w.Code, w.Body.String())
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				pi := (r + q) % len(probes)
				if q%3 == 0 {
					// A batch carrying every probe at once: distinct
					// queries evaluate concurrently on the compute
					// slots.
					w := do(t, s, "POST", "/v1/batch", probes)
					if w.Code != http.StatusOK {
						t.Errorf("reader %d: batch %d %s", r, w.Code, w.Body.String())
						return
					}
					var elems []json.RawMessage
					if err := json.Unmarshal(w.Body.Bytes(), &elems); err != nil || len(elems) != len(probes) {
						t.Errorf("reader %d: batch decode: %v", r, err)
						return
					}
					for i, el := range elems {
						if !anyVersion[i][string(el)] {
							t.Errorf("reader %d: batch element %d matches no committed version: %s", r, i, el)
							return
						}
					}
					continue
				}
				w := do(t, s, "POST", "/v1/evaluate", probes[pi])
				if w.Code != http.StatusOK {
					t.Errorf("reader %d: %d %s", r, w.Code, w.Body.String())
					return
				}
				ver := w.Header().Get("X-Wmcs-Version")
				want, ok := expected[ver+"/"+strconv.Itoa(pi)]
				if !ok {
					t.Errorf("reader %d: served version %q is not a committed state (torn swap?)", r, ver)
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("reader %d: probe %d bytes differ from version %s's state (stale entry?)\nserved: %s\nwant:   %s",
						r, pi, ver, w.Body.String(), want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := entry.Ev.Version(), uint64(len(updates)+rounds); got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}
}
