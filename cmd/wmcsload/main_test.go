package main

import (
	"bytes"
	"math"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// TestPinMechRePinsDeterministically pins the documented re-pin rule:
// the hash selects from the full -mechs list; when the pinned mechanism
// is unsupported on the target network, the SAME hash is reduced modulo
// the network's supported subset (in -mechs order), so the assignment
// depends only on (hash, -mechs, network class) — never on worker
// interleaving — and always lands on a supported mechanism.
func TestPinMechRePinsDeterministically(t *testing.T) {
	specs := []instances.Spec{
		{Name: "uni", Scenario: "uniform", N: 9, Alpha: 2, Seed: 1}, // no line mechanisms
		{Name: "line", Scenario: "line", N: 9, Alpha: 2, Seed: 2},   // line mechanisms OK
	}
	mechs := []string{"line-shapley", "universal-shapley", "wireless-bb"}
	cfg := loadConfig{mechs: mechs, mechsFor: make([][]string, len(specs))}
	for j, sp := range specs {
		nw, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mechs {
			if mechreg.Supports(m, nw) == nil {
				cfg.mechsFor[j] = append(cfg.mechsFor[j], m)
			}
		}
	}
	if len(cfg.mechsFor[0]) != 2 || len(cfg.mechsFor[1]) != 3 {
		t.Fatalf("supported subsets: %v", cfg.mechsFor)
	}
	repins := 0
	for hash := 0; hash < 3000; hash++ {
		for j := range specs {
			name, repinned := cfg.pinMech(j, hash)
			again, againPinned := cfg.pinMech(j, hash)
			if name != again || repinned != againPinned {
				t.Fatalf("pinMech not deterministic at (%d, %d)", j, hash)
			}
			ok := false
			for _, m := range cfg.mechsFor[j] {
				if m == name {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("hash %d network %d pinned unsupported %s", hash, j, name)
			}
			if repinned {
				if j != 0 {
					t.Fatalf("re-pin on the line network (supports all of -mechs)")
				}
				repins++
			}
		}
	}
	if repins == 0 {
		t.Fatal("no hash ever pinned line-shapley onto the uniform network — the re-pin path is untested")
	}
	// The rule in closed form: hash→mechs[h%3]; unsupported → subset[h%2].
	if name, repinned := cfg.pinMech(0, 0); name != "universal-shapley" || !repinned {
		t.Fatalf("hash 0 on uni: got (%s, %v)", name, repinned)
	}
	if name, repinned := cfg.pinMech(1, 0); name != "line-shapley" || repinned {
		t.Fatalf("hash 0 on line: got (%s, %v)", name, repinned)
	}
}

// TestVerifyAgainstColdEvaluation pins the verification rule: a first
// response passes only if it equals EncodeOutcome of a cold evaluation
// over the replica of the version it names, so bytes whose cost is one
// ulp off and bytes labeled with a version the run never created are
// both mismatches; a repeat must equal the first response.
func TestVerifyAgainstColdEvaluation(t *testing.T) {
	sp := instances.Spec{Name: "uni", Scenario: "uniform", N: 9, Alpha: 2, Seed: 1}
	nw, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadConfig{specs: []instances.Spec{sp}, replicas: []map[uint64]*wireless.Network{{0: nw}}}
	req := serve.EvalRequest{Network: sp.Name, Mech: "wireless-bb", Profile: []float64{0, 30, 12, 44, 9, 27, 31, 5, 18}}
	c, err := serve.Canonicalize(req, nw.N(), nw.Source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := query.NewEvaluator(nw).Mechanism(c.Mech)
	if err != nil {
		t.Fatal(err)
	}
	o := m.Run(c.Profile)
	cold, err := serve.EncodeOutcome(sp.Name, c.Mech, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cost = math.Nextafter(o.Cost, math.Inf(1))
	off, err := serve.EncodeOutcome(sp.Name, c.Mech, o)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cold, off) {
		t.Fatal("moving the cost one ulp left the bytes unchanged")
	}
	for _, tc := range []struct {
		name, version string
		body          []byte
		want          int
	}{
		{"cold bytes", "0", cold, 0},
		{"cost one ulp off", "0", off, 1},
		{"version never created", "7", cold, 1},
	} {
		got, msg := verify(cfg, []firstResponse{{net: 0, version: tc.version, req: c, body: tc.body}})
		if got != tc.want || (got > 0) != (msg != "") {
			t.Errorf("%s: verify = (%d, %q), want %d mismatches", tc.name, got, msg, tc.want)
		}
	}

	res := loadResult{seen: map[string][]byte{}}
	res.check(0, req, "0", cold, nw)
	res.check(0, req, "0", cold, nw)
	res.check(0, req, "0", off, nw)
	if res.compared != 3 || len(res.firsts) != 1 || res.mismatches != 1 {
		t.Errorf("three responses, one differing repeat: compared %d, firsts %d, mismatches %d",
			res.compared, len(res.firsts), res.mismatches)
	}
}

// TestChurnRunVerifies drives an in-process server the way main does:
// fresh registration, the query stream with the updater interleaving
// PATCHes, then the cold verification after the updater exits. Every
// response must pass, and some must name a version the updater created,
// so the replica it recorded is the one checked. Under -race this also
// covers the updater writing replicas while the workers run.
func TestChurnRunVerifies(t *testing.T) {
	baseURL, shutdown, err := connectOrBoot("", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	specs := []instances.Spec{
		{Name: "uni", Scenario: "uniform", N: 8, Alpha: 2, Seed: 1},
		{Name: "sym", Scenario: "symmetric", N: 8, Alpha: 2, Seed: 2},
	}
	if err := ensureFreshNetworks(baseURL, specs); err != nil {
		t.Fatal(err)
	}
	wl, err := instances.WorkloadByName("hotset")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadConfig{
		baseURL:  baseURL,
		specs:    specs,
		workload: wl,
		mechs:    []string{"universal-shapley", "wireless-bb"},
		queries:  240,
		parallel: 4,
		seed:     1,
		opts:     instances.WorkloadOptions{HotSets: 8, ZipfS: 1.2, UMax: 50},
	}
	for _, sp := range specs {
		nw, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg.nets = append(cfg.nets, nw)
		cfg.replicas = append(cfg.replicas, map[uint64]*wireless.Network{0: nw})
		cfg.mechsFor = append(cfg.mechsFor, cfg.mechs)
	}
	d, err := newChurnDriver(&cfg, 4, "auto", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.churn = d
	go d.run()
	run := runLoad(cfg)
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	mismatches, msg := verify(cfg, run.firsts)
	if run.errors > 0 || run.mismatches > 0 || mismatches > 0 {
		t.Fatalf("errors %d, repeat mismatches %d, cold mismatches %d; first: %q %q",
			run.errors, run.mismatches, mismatches, run.firstError, msg)
	}
	updated := 0
	for _, f := range run.firsts {
		if f.version != "0" {
			updated++
		}
	}
	if len(d.rebuildMS) == 0 || updated == 0 {
		t.Fatalf("%d updates applied, %d first responses at an updated version", len(d.rebuildMS), updated)
	}
}

// TestEnsureFreshNetworksRejectsDuplicateNames: re-registering a name
// evicts what was hosted under it, so a spec list naming one network
// twice would leave the first spec's replica describing a network the
// server no longer hosts. It must fail before the run instead.
func TestEnsureFreshNetworksRejectsDuplicateNames(t *testing.T) {
	baseURL, shutdown, err := connectOrBoot("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	specs := []instances.Spec{
		{Name: "dup", Scenario: "uniform", N: 8, Alpha: 2, Seed: 1},
		{Name: "dup", Scenario: "uniform", N: 8, Alpha: 2, Seed: 2},
	}
	if err := ensureFreshNetworks(baseURL, specs); err == nil {
		t.Fatal("a spec list naming one network twice registered without error")
	}
}
