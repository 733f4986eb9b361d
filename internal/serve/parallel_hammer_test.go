package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
)

// TestParallelReplicaHammer is the -race hammer for concurrent
// evaluation (DESIGN.md §14): two networks served at evaluation width 4
// take concurrent heavy queries — exact wireless-bb, exact Shapley, and
// sampled-tier requests with certificates — while a writer rotates each
// network through PATCH versions. Concurrent misses against distinct
// networks and versions evaluate at once on the compute slots; every
// version-labeled response must be byte-identical to a cold width-1
// evaluator at exactly the version its X-Wmcs-Version header names
// (width 1 stands in for the server's width because the bytes are
// width-invariant by construction — the query-layer sweep pins that).
func TestParallelReplicaHammer(t *testing.T) {
	const (
		n       = 8
		readers = 6
		queries = 16
		width   = 4
	)
	specs := []instances.Spec{
		{Name: "phamA", Scenario: "uniform", N: n, Alpha: 2, Seed: 61},
		{Name: "phamB", Scenario: "clustered", N: n, Alpha: 2, Seed: 62},
	}
	reg := NewRegistry()
	reg.SetParallel(width) // before registration, as wmcsd does
	for _, sp := range specs {
		if err := reg.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	if cap(s.slots) != width {
		t.Fatalf("compute slots %d, want the registry's width %d", cap(s.slots), width)
	}

	// Per network: heavy probes (the spider-contraction mechanism, a
	// Shapley tree, and a sampled-tier request whose response carries a
	// certificate) plus the PATCH stream and the per-version expected
	// bytes, computed on independent replicas with width-1 evaluators.
	type netCase struct {
		name     string
		probes   []EvalRequest
		updates  []instances.Update
		expected map[string][]byte // "version/probeIdx" -> bytes
	}
	cases := make([]*netCase, len(specs))
	for j, sp := range specs {
		entry, _ := reg.Get(sp.Name)
		src := entry.Net.Source()
		u := profileFor(n, src, 70+int64(j))
		nc := &netCase{
			name: sp.Name,
			probes: []EvalRequest{
				{Network: sp.Name, Mech: mechreg.WirelessBB, Profile: u},
				{Network: sp.Name, Mech: mechreg.UniversalShapley, Profile: u},
				{Network: sp.Name, Mech: mechreg.UniversalShapley, Profile: u,
					Approx: &ApproxWire{Samples: 40, Delta: 0.1, Seed: 17}},
			},
			expected: map[string][]byte{},
		}
		moved := (src + 1 + j) % n
		entryHome := entry.Net.Points()[moved].Clone()
		away := entryHome.Clone()
		away[0] += 0.2
		for r := 0; r < 2; r++ {
			nc.updates = append(nc.updates,
				instances.Update{Moves: []instances.MoveOp{{Station: moved, Point: away.Clone()}}},
				instances.Update{Moves: []instances.MoveOp{{Station: moved, Point: entryHome.Clone()}}},
			)
		}
		replica, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		record := func() {
			snap := replica.Snapshot()
			ev := query.NewEvaluator(snap)
			for pi, req := range nc.probes {
				c, err := Canonicalize(req, n, src)
				if err != nil {
					t.Fatal(err)
				}
				var b []byte
				if c.Approx != nil {
					o, cert, err := ev.EvaluateApprox(req.Mech, nil, c.Profile, *c.Approx)
					if err != nil {
						t.Fatal(err)
					}
					if b, err = EncodeOutcomeCert(nc.name, req.Mech, o, &cert); err != nil {
						t.Fatal(err)
					}
				} else {
					o, err := ev.Evaluate(req.Mech, nil, c.Profile)
					if err != nil {
						t.Fatal(err)
					}
					if b, err = EncodeOutcome(nc.name, req.Mech, o); err != nil {
						t.Fatal(err)
					}
				}
				nc.expected[fmt.Sprintf("%d/%d", snap.Version(), pi)] = b
			}
		}
		record()
		for _, up := range nc.updates {
			if err := up.Apply(replica); err != nil {
				t.Fatal(err)
			}
			record()
		}
		cases[j] = nc
	}

	var wg sync.WaitGroup
	for j := range cases {
		j := j
		wg.Add(1)
		go func() { // one writer per network
			defer wg.Done()
			for _, up := range cases[j].updates {
				if w := do(t, s, "PATCH", "/v1/networks/"+cases[j].name, up); w.Code != http.StatusOK {
					t.Errorf("PATCH %s: %d %s", cases[j].name, w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				nc := cases[(r+q)%len(cases)]
				pi := (r + q) % len(nc.probes)
				w := do(t, s, "POST", "/v1/evaluate", nc.probes[pi])
				if w.Code != http.StatusOK {
					t.Errorf("reader %d: %s probe %d: %d %s", r, nc.name, pi, w.Code, w.Body.String())
					return
				}
				ver := w.Header().Get("X-Wmcs-Version")
				want, ok := nc.expected[ver+"/"+strconv.Itoa(pi)]
				if !ok {
					t.Errorf("reader %d: %s served version %q is not a committed state", r, nc.name, ver)
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("reader %d: %s probe %d bytes differ from the cold width-1 parallel evaluation of version %s\nserved: %s\nwant:   %s",
						r, nc.name, pi, ver, w.Body.String(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
