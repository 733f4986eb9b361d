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
	"wmcs/internal/wireless"
)

// updateFor builds a small class-appropriate delta for a network:
// moves on Euclidean networks, cost changes on abstract ones. step
// varies the delta so successive calls produce distinct states.
func updateFor(nw *wireless.Network, step int) instances.Update {
	if nw.IsEuclidean() {
		p := nw.Points()[1].Clone()
		p[0] += 0.5 + 0.25*float64(step)
		return instances.Update{Moves: []instances.MoveOp{{Station: 1, Point: p}}}
	}
	return instances.Update{SetCosts: []instances.CostSet{
		{I: 1, J: 2, Cost: 1.5 + float64(step)},
		{I: 2, J: 3, Cost: 2.5 + float64(step)},
	}}
}

// TestPatchDifferentialAllMechanisms is the lifecycle differential
// test: after a PATCH, the served bytes for every supported mechanism
// must equal a fresh one-shot evaluation over an independently mutated
// replica of the network — and the first post-update request must be a
// miss (old-generation entries are unreachable, not served).
func TestPatchDifferentialAllMechanisms(t *testing.T) {
	specs := []instances.Spec{
		{Name: "u-uni", Scenario: "uniform", N: 9, Alpha: 2, Seed: 61},
		{Name: "u-sym", Scenario: "symmetric", N: 9, Alpha: 2, Seed: 62},
		{Name: "u-line", Scenario: "line", N: 8, Alpha: 2, Seed: 63},
		{Name: "u-a1", Scenario: "uniform", N: 8, Alpha: 1, Seed: 64},
	}
	reg := NewRegistry()
	for _, sp := range specs {
		if err := reg.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg, Options{})
	defer s.Close()

	for _, sp := range specs {
		entry, _ := reg.Get(sp.Name)
		nw := entry.Net
		up := updateFor(nw, 0)
		// The verification replica: same spec, same delta, fresh stack.
		replica, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := up.Apply(replica); err != nil {
			t.Fatal(err)
		}

		wire := profileFor(nw.N(), nw.Source(), 17)
		// Warm the cache pre-update for every mechanism.
		for _, name := range entry.Supported {
			req := EvalRequest{Network: sp.Name, Mech: name, Profile: wire}
			if w := do(t, s, "POST", "/v1/evaluate", req); w.Code != http.StatusOK {
				t.Fatalf("%s/%s pre-update: %d %s", sp.Name, name, w.Code, w.Body.String())
			}
			if w := do(t, s, "POST", "/v1/evaluate", req); w.Header().Get("X-Wmcs-Cache") != "hit" {
				t.Fatalf("%s/%s pre-update warm-up not a hit", sp.Name, name)
			}
		}

		w := do(t, s, "PATCH", "/v1/networks/"+sp.Name, up)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: PATCH: %d %s", sp.Name, w.Code, w.Body.String())
		}
		var ur updateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ur); err != nil {
			t.Fatal(err)
		}
		if ur.OldVersion != 0 || ur.Version != uint64(up.Ops()) || ur.Ops != up.Ops() {
			t.Fatalf("%s: update response %+v, want 0 -> %d", sp.Name, ur, up.Ops())
		}
		if ur.CacheEntriesDropped != len(entry.Supported) {
			t.Fatalf("%s: dropped %d cache entries, want %d", sp.Name, ur.CacheEntriesDropped, len(entry.Supported))
		}

		for _, name := range entry.Supported {
			req := EvalRequest{Network: sp.Name, Mech: name, Profile: wire}
			label := sp.Name + "/" + name
			post := do(t, s, "POST", "/v1/evaluate", req)
			if post.Code != http.StatusOK {
				t.Fatalf("%s post-update: %d %s", label, post.Code, post.Body.String())
			}
			if src := post.Header().Get("X-Wmcs-Cache"); src != "miss" {
				t.Fatalf("%s: first post-update request was a %q, want miss (stale generation served?)", label, src)
			}
			if got := post.Header().Get("X-Wmcs-Version"); got != strconv.Itoa(up.Ops()) {
				t.Fatalf("%s: version header %q, want %d", label, got, up.Ops())
			}
			c, err := Canonicalize(req, nw.N(), nw.Source())
			if err != nil {
				t.Fatal(err)
			}
			m, err := query.NewEvaluator(replica).Mechanism(name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			oneShot, err := EncodeOutcome(sp.Name, name, m.Run(c.Profile))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !bytes.Equal(post.Body.Bytes(), oneShot) {
				t.Fatalf("%s: post-update response differs from one-shot on the mutated replica\nserved:   %s\none-shot: %s",
					label, post.Body.String(), oneShot)
			}
			// And the repeat is a hit on the new generation.
			if w := do(t, s, "POST", "/v1/evaluate", req); w.Header().Get("X-Wmcs-Cache") != "hit" ||
				!bytes.Equal(w.Body.Bytes(), oneShot) {
				t.Fatalf("%s: post-update repeat not an identical hit", label)
			}
		}
	}
}

// TestPatchOverlappingDisableWindows drives the phantom-edge regression
// through the HTTP surface: disable two stations in one delta, revive
// them in another, and the served bytes must equal a fresh evaluation
// on the original network (the overlap used to leave a permanent
// DisabledCost edge between the revived pair).
func TestPatchOverlappingDisableWindows(t *testing.T) {
	sp := instances.Spec{Name: "flap", Scenario: "symmetric", N: 8, Seed: 71}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	wire := profileFor(8, 0, 31)
	req := EvalRequest{Network: "flap", Mech: "universal-shapley", Profile: wire}
	before := do(t, s, "POST", "/v1/evaluate", req)
	if before.Code != http.StatusOK {
		t.Fatalf("pre-churn: %d %s", before.Code, before.Body.String())
	}
	for _, up := range []instances.Update{
		{Disable: []int{3, 4}},
		{Enable: []int{3, 4}},
	} {
		if w := do(t, s, "PATCH", "/v1/networks/flap", up); w.Code != http.StatusOK {
			t.Fatalf("PATCH %+v: %d %s", up, w.Code, w.Body.String())
		}
	}
	after := do(t, s, "POST", "/v1/evaluate", req)
	if after.Code != http.StatusOK {
		t.Fatalf("post-churn: %d %s", after.Code, after.Body.String())
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("full recovery serves different bytes (phantom edge?)\nbefore: %s\nafter:  %s",
			before.Body.String(), after.Body.String())
	}
	if src := after.Header().Get("X-Wmcs-Cache"); src != "miss" {
		t.Fatalf("post-recovery request was a %q (version 4 is a new generation)", src)
	}
}

// TestPatchErrors pins the PATCH failure modes: unknown network (404),
// empty or malformed delta (400), an op the network's class or the
// DisabledCost bound rejects (422) — with nothing applied in any failure
// case.
func TestPatchErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	if w := do(t, s, "PATCH", "/v1/networks/nope", instances.Update{Disable: []int{1}}); w.Code != http.StatusNotFound {
		t.Fatalf("unknown network: %d", w.Code)
	}
	if w := do(t, s, "PATCH", "/v1/networks/uni", instances.Update{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty update: %d", w.Code)
	}
	cases := []instances.Update{
		{SetCosts: []instances.CostSet{{I: 1, J: 2, Cost: 5}}},         // uni is Euclidean: costs follow geometry
		{Moves: []instances.MoveOp{{Station: 1, Point: []float64{1}}}}, // dimension change
		{Moves: []instances.MoveOp{{Station: 99, Point: []float64{1, 1}}}},
		{Disable: []int{0}}, // the source
		{Enable: []int{3}},  // already enabled
		{Moves: []instances.MoveOp{{Station: 3, Point: []float64{1e200, 0}}}}, // costs overflow past DisabledCost
	}
	for i, up := range cases {
		if w := do(t, s, "PATCH", "/v1/networks/uni", up); w.Code != http.StatusUnprocessableEntity {
			t.Errorf("case %d: %d, want 422 (%s)", i, w.Code, w.Body.String())
		}
	}
	// A failing multi-op delta applies nothing: version still 0.
	bad := instances.Update{
		Moves: []instances.MoveOp{{Station: 1, Point: []float64{5, 5}}, {Station: 99, Point: []float64{1, 1}}},
	}
	if w := do(t, s, "PATCH", "/v1/networks/uni", bad); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("partial delta: %d", w.Code)
	}
	entry, _ := s.reg.Get("uni")
	if v := entry.Ev.Version(); v != 0 {
		t.Fatalf("failed PATCH advanced the version to %d", v)
	}
}

// TestPatchObservability: /statsz exposes the update counters, the
// rebuild histogram and the per-network generation, and the generation
// string proves the bump happened in place (same registration half).
func TestPatchObservability(t *testing.T) {
	s := newTestServer(t, Options{})
	before := statszFor(t, s)
	genBefore, ok := before.Generations["uni"]
	if !ok {
		t.Fatalf("no generation for uni: %+v", before.Generations)
	}
	entry, _ := s.reg.Get("uni")
	up := updateFor(entry.Net, 0)
	if w := do(t, s, "PATCH", "/v1/networks/uni", up); w.Code != http.StatusOK {
		t.Fatalf("PATCH: %d %s", w.Code, w.Body.String())
	}
	after := statszFor(t, s)
	if after.Updates != before.Updates+1 || after.UpdateOps != before.UpdateOps+uint64(up.Ops()) {
		t.Fatalf("update counters: %+v -> %+v", before, after)
	}
	if after.RebuildUS.Count != before.RebuildUS.Count+1 {
		t.Fatalf("rebuild histogram count %d -> %d", before.RebuildUS.Count, after.RebuildUS.Count)
	}
	genAfter := after.Generations["uni"]
	if genAfter == genBefore {
		t.Fatalf("generation did not bump: %s", genAfter)
	}
	reg, regAfter := genBefore[:len(genBefore)-2], genAfter[:len(genAfter)-2]
	if reg != regAfter {
		t.Fatalf("registration half changed (%s -> %s): update forced a re-register", genBefore, genAfter)
	}
}

// patch sends one PATCH and decodes the success body.
func patch(t *testing.T, s *Server, name string, up instances.Update) updateResponse {
	t.Helper()
	w := do(t, s, "PATCH", "/v1/networks/"+name, up)
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH %s: %d %s", name, w.Code, w.Body.String())
	}
	var ur updateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	return ur
}

// TestPatchNoOpRetiresNothing: a PATCH whose every op is a true no-op
// (same-value SetCost) answers 200 with zero ops, bumps nothing, and
// leaves the cached entries hot — the next request is a hit at the
// same version.
func TestPatchNoOpRetiresNothing(t *testing.T) {
	sp := instances.Spec{Name: "noop", Scenario: "symmetric", N: 8, Seed: 41}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	entry, _ := reg.Get("noop")
	req := EvalRequest{Network: "noop", Mech: "universal-shapley", Profile: profileFor(8, 0, 5)}
	warm := do(t, s, "POST", "/v1/evaluate", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", warm.Code, warm.Body.String())
	}
	before := statszFor(t, s)
	ur := patch(t, s, "noop", instances.Update{SetCosts: []instances.CostSet{
		{I: 1, J: 2, Cost: entry.Net.C(1, 2)},
	}})
	if ur.Ops != 0 || ur.Version != ur.OldVersion || ur.CacheEntriesDropped != 0 {
		t.Fatalf("no-op PATCH response: %+v", ur)
	}
	if v := entry.Ev.Version(); v != 0 {
		t.Fatalf("no-op PATCH advanced the version to %d", v)
	}
	after := statszFor(t, s)
	if after.Updates != before.Updates || after.RebuildUS.Count != before.RebuildUS.Count {
		t.Fatalf("no-op PATCH counted as an update: %+v -> %+v", before, after)
	}
	if w := do(t, s, "POST", "/v1/evaluate", req); w.Header().Get("X-Wmcs-Cache") != "hit" ||
		!bytes.Equal(w.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("no-op PATCH retired the cached entry")
	}
}

// TestPatchRecomputesEveryRetiredEntry: every PATCH that bumps the
// version retires every entry of the old version, even one whose bytes
// the update cannot change. On an α = 1 network an alpha1-shapley
// answer reads only the source's distance row, so moving a station
// outside the query's support leaves it byte-identical; it is
// recomputed all the same, on a miss, and equals a cold evaluation on a
// replica with the same move. A disable+enable round trip, whose ops
// cancel out, retires the version the same way. The PATCHes themselves
// read no cache entry: hits and misses do not move across them.
func TestPatchRecomputesEveryRetiredEntry(t *testing.T) {
	sp := instances.Spec{Name: "a1", Scenario: "uniform", N: 9, Alpha: 1, Seed: 47}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	entry, _ := reg.Get("a1")
	const moved = 4
	outside := profileFor(9, entry.Net.Source(), 9)
	outside[moved] = 0
	req := EvalRequest{Network: "a1", Mech: mechreg.Alpha1Shapley, Profile: outside}
	warm := do(t, s, "POST", "/v1/evaluate", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", warm.Code, warm.Body.String())
	}

	p := entry.Net.Points()[moved].Clone()
	p[0] += 0.35
	move := instances.Update{Moves: []instances.MoveOp{{Station: moved, Point: p}}}
	replica, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := move.Apply(replica); err != nil {
		t.Fatal(err)
	}
	c, err := Canonicalize(req, 9, replica.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := query.NewEvaluator(replica).Mechanism(mechreg.Alpha1Shapley)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeOutcome("a1", mechreg.Alpha1Shapley, m.Run(c.Profile))
	if err != nil {
		t.Fatal(err)
	}

	for _, step := range []struct {
		name string
		up   instances.Update
		ops  int
	}{
		{"move outside the support", move, 1},
		{"disable+enable round trip", instances.Update{Disable: []int{3}, Enable: []int{3}}, 2},
	} {
		before := statszFor(t, s)
		ur := patch(t, s, "a1", step.up)
		if ur.Ops != step.ops || ur.Version != ur.OldVersion+uint64(step.ops) || ur.Incremental || ur.CacheEntriesDropped != 1 {
			t.Fatalf("%s: PATCH response %+v", step.name, ur)
		}
		after := statszFor(t, s)
		if after.Cache.Hits != before.Cache.Hits || after.Cache.Misses != before.Cache.Misses {
			t.Fatalf("%s: PATCH moved the cache counters: hits %d -> %d, misses %d -> %d",
				step.name, before.Cache.Hits, after.Cache.Hits, before.Cache.Misses, after.Cache.Misses)
		}
		w := do(t, s, "POST", "/v1/evaluate", req)
		if src := w.Header().Get("X-Wmcs-Cache"); src != "miss" {
			t.Fatalf("%s: retired entry served as %q, want miss", step.name, src)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("%s: recomputed bytes differ from a cold evaluation on the moved network\nserved: %s\ncold:   %s",
				step.name, w.Body.String(), want)
		}
	}
	if !bytes.Equal(want, warm.Body.Bytes()) {
		t.Fatalf("moving a station outside the support changed the alpha1-shapley bytes\nwarm: %s\ncold: %s", warm.Body.String(), want)
	}
}

func statszFor(t *testing.T, s *Server) statszPayload {
	t.Helper()
	w := do(t, s, "GET", "/statsz", nil)
	var p statszPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUpdateMidFlightLeavesNoDeadCacheEntry is the update twin of the
// evict regression: a task admitted at version v whose Put lands after
// the PATCH handler's purge of version v's prefix must delete its own
// key instead of stranding it in LRU capacity forever.
func TestUpdateMidFlightLeavesNoDeadCacheEntry(t *testing.T) {
	s := newTestServer(t, Options{})
	entry, _ := s.reg.Get("uni")
	c, err := Canonicalize(EvalRequest{Network: "uni", Mech: "universal-mc", Profile: profileFor(10, 0, 23)}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the admission pair, then let the update and its purge win the
	// race before the task's Put runs — the worst-case interleaving.
	cur := entry.Ev.Current()
	key := entry.prefixFor(cur.Version) + c.Key
	if w := do(t, s, "PATCH", "/v1/networks/uni", updateFor(entry.Net, 0)); w.Code != http.StatusOK {
		t.Fatalf("PATCH: %d %s", w.Code, w.Body.String())
	}
	body, err := s.compute(entry, cur.Ev, cur.Version, c, key, nil)
	if err != nil || len(body) == 0 {
		t.Fatalf("in-flight task after update: body=%q err=%v", body, err)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("dead entry resident under retired version")
	}
}

// TestConcurrentReadersNeverSeeTornState is the -race hammer for the
// tentpole invariant: while a writer PATCHes a network through several
// versions, every concurrently served response must be byte-identical
// to the expected bytes of the exact version its X-Wmcs-Version header
// names — a reader can never observe a half-applied delta or bytes
// mislabeled with another version.
func TestConcurrentReadersNeverSeeTornState(t *testing.T) {
	const (
		nStations  = 8
		versionsN  = 4 // PATCHes applied by the writer
		readers    = 4
		queriesPer = 24
	)
	sp := instances.Spec{Name: "torn", Scenario: "symmetric", N: nStations, Seed: 91}
	reg := NewRegistry()
	if err := reg.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()

	// Precompute the update stream and, per reachable version, the
	// expected bytes of the probe queries (universal-mc and jv-moat are
	// cheap; wireless-bb would blow the single-core -race budget).
	mechs := []string{"universal-mc", "jv-moat"}
	profiles := [][]float64{profileFor(nStations, 0, 3), profileFor(nStations, 0, 8)}
	replica, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	updates := make([]instances.Update, versionsN)
	expected := map[string][]byte{} // "version/mech/profileIdx" -> bytes
	record := func() {
		snap := replica.Snapshot()
		ev := query.NewEvaluator(snap)
		for _, mech := range mechs {
			m, err := ev.Mechanism(mech)
			if err != nil {
				t.Fatal(err)
			}
			for pi, wire := range profiles {
				c, err := Canonicalize(EvalRequest{Network: sp.Name, Mech: mech, Profile: wire}, nStations, snap.Source())
				if err != nil {
					t.Fatal(err)
				}
				b, err := EncodeOutcome(sp.Name, mech, m.Run(c.Profile))
				if err != nil {
					t.Fatal(err)
				}
				expected[fmt.Sprintf("%d/%s/%d", snap.Version(), mech, pi)] = b
			}
		}
	}
	record()
	for i := range updates {
		updates[i] = instances.Update{SetCosts: []instances.CostSet{
			{I: 1, J: 2, Cost: 1 + float64(i)},
			{I: 3, J: 4, Cost: 2 + float64(i)},
			{I: 5, J: 6, Cost: 3 + float64(i)},
		}}
		if err := updates[i].Apply(replica); err != nil {
			t.Fatal(err)
		}
		record()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for _, up := range updates {
			if w := do(t, s, "PATCH", "/v1/networks/"+sp.Name, up); w.Code != http.StatusOK {
				t.Errorf("PATCH: %d %s", w.Code, w.Body.String())
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queriesPer; q++ {
				mech := mechs[(r+q)%len(mechs)]
				pi := q % len(profiles)
				w := do(t, s, "POST", "/v1/evaluate", EvalRequest{Network: sp.Name, Mech: mech, Profile: profiles[pi]})
				if w.Code != http.StatusOK {
					t.Errorf("reader %d: %d %s", r, w.Code, w.Body.String())
					return
				}
				ver := w.Header().Get("X-Wmcs-Version")
				want, ok := expected[ver+"/"+mech+"/"+strconv.Itoa(pi)]
				if !ok {
					t.Errorf("reader %d: served version %q is not a committed state (torn swap?)", r, ver)
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("reader %d: bytes differ from version %s's expected state\nserved:   %s\nexpected: %s",
						r, ver, w.Body.String(), want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	// Every version advanced the generation in place.
	entry, _ := s.reg.Get(sp.Name)
	if got, want := entry.Ev.Version(), uint64(versionsN*3); got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}
}
