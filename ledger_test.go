package wmcs

// The count ledger (DESIGN.md §11.4). testdata/golden/count_ledger.txt
// pins the heap allocations of the kernels the mechanisms run on, per
// call, and of every served-corpus cell through query.Evaluator, per
// warm pass. An allocation count on a warm path is exact, so the ledger
// is compared at zero tolerance: a change that moves a count fails
// TestCountLedger until -update rewrites the file, and the diff names
// the layer that moved.
//
// Counts are exact only when taken one way, and countAllocs is that
// way:
//   - testing.AllocsPerRun, never a single-shot MemStats delta: a stray
//     allocation elsewhere in the process lands in a single shot, while
//     AllocsPerRun divides it across its runs and floors it away;
//   - after runtime.GC(), so each line starts from a collected heap and
//     garbage never piles up while the collector is off;
//   - with the collector off while counting: every GC cycle allocates a
//     couple of objects of its own, and memtred.New at n = 48 (3 MB a
//     call) starts cycles during its runs, whose strays grow with the
//     run count, so no run count floors them away. With no cycle,
//     sync.Pool also keeps what it was given.
//
// The test skips under -race, where sync.Pool drops Puts at random, and
// off goldenTarget, so one pin governs both golden files.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/memtred"
	"wmcs/internal/mst"
	"wmcs/internal/nwst"
	"wmcs/internal/paths"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/sharing"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
)

const countLedgerPath = "testdata/golden/count_ledger.txt"

// ledgerRuns is the AllocsPerRun count of every ledger line. With the
// collector off, the heap grows by ledgerRuns+1 calls' garbage (about
// 33 MB for memtred.New at n = 48) before the next line collects it.
const ledgerRuns = 10

// countAllocs returns the heap allocations of one call of f, taken as
// the package comment prescribes.
func countAllocs(f func()) int {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return int(testing.AllocsPerRun(ledgerRuns, f))
}

// countBytes returns the heap bytes of one call of f, taken the way
// countAllocs takes objects: after a collection, with the collector off
// and one OS thread, one warm-up call, then MemStats.TotalAlloc over
// ledgerRuns calls.
func countBytes(f func()) uint64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ledgerRuns; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / ledgerRuns
}

// TestCountLedger renders the count ledger and requires it to equal the
// committed file line for line; -update rewrites the file. It also
// asserts the delta path's reason to exist: at n = 48, memtred.Rebuild
// after a single-pair SetCost allocates at most a fifth of the bytes
// memtred.New allocates. Bytes, not objects: most of New's objects are
// fixed per-station arrays, so merging a few would move the object
// ratio while the work Rebuild saves stays the same.
func TestCountLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector, so allocation counts are not exact")
	}
	if !goldenTarget {
		t.Skipf("the ledger is pinned with the served corpus to amd64 at GOAMD64=v1; this build is %s", runtime.GOARCH)
	}
	var buf bytes.Buffer
	buf.WriteString("# kernel func size allocs-per-call | query network mech allocs-per-warm-pass (three corpus requests) — regenerate: go test -run '^TestCountLedger$' -update .\n")
	build, rebuild := ledgerKernels(t, &buf)
	ledgerCells(t, &buf)
	if rebuild*5 > build {
		t.Errorf("memtred.Rebuild at n = 48 allocates %d bytes, more than a fifth of memtred.New's %d", rebuild, build)
	}
	checkGolden(t, countLedgerPath, buf.Bytes())
}

// ledgerKernels writes one line per kernel and returns memtred.New's
// and memtred.Rebuild's bytes per call at n = 48.
func ledgerKernels(t *testing.T, w io.Writer) (build48, rebuild48 uint64) {
	kernel := func(name, size string, f func()) {
		fmt.Fprintf(w, "kernel %s %s %d\n", name, size, countAllocs(f))
	}
	build := func(sp instances.Spec) *wireless.Network {
		nw, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}

	uni := build(instances.Spec{Scenario: "uniform", N: 64, Alpha: 2, Seed: 1})
	m, g := uni.CostMatrix(), uni.CompleteGraph()
	kernel("paths.DijkstraMatrix", "n=64", func() { paths.DijkstraMatrix(m, 0) })
	kernel("paths.Dijkstra", "n=64", func() { paths.Dijkstra(g, 0) })
	kernel("mst.PrimMatrix", "n=64", func() { mst.PrimMatrix(m, 0) })
	kernel("mst.Prim", "n=64", func() { mst.Prim(g, 0) })

	var sym12 *wireless.Network
	for _, n := range []int{12, 48} {
		nw := build(instances.Spec{Scenario: "symmetric", N: n, Alpha: 2, Seed: 1})
		size := fmt.Sprintf("n=%d", n)
		newH := func() { memtred.New(nw) }
		kernel("memtred.New", size, newH)
		// One SetCost pair dirties rows 1 and 2.
		prev, work := memtred.New(nw), nw.Snapshot()
		if _, err := work.SetCost(1, 2, work.C(1, 2)*1.1); err != nil {
			t.Fatal(err)
		}
		dirty := work.TakeDelta().DirtyRows
		if memtred.Rebuild(prev, work, dirty) == nil {
			t.Fatalf("memtred.Rebuild at %s fell back to New", size)
		}
		rebuildH := func() { memtred.Rebuild(prev, work, dirty) }
		kernel("memtred.Rebuild", size, rebuildH)
		if n == 12 {
			sym12 = nw
		} else {
			build48, rebuild48 = countBytes(newH), countBytes(rebuildH)
		}
	}

	R := sym12.AllReceivers()
	st := nwst.NewState(memtred.New(sym12).Instance(R))
	kernel("nwst.BranchSpiderOracle", "n=12", func() { nwst.BranchSpiderOracle(st, 2) })
	kernel("nwst.KleinRaviOracle", "n=12", func() { nwst.KleinRaviOracle(st, 2) })

	ut := universal.SPT(sym12)
	kernel("universal.Tree.Shapley", "n=12", func() { ut.Shapley(R) })
	shapley := sharing.Shapley(ut.CostFunc())
	kernel("sharing.Shapley", "k=10", func() { shapley.Shares(R[:10]) })

	uniform, err := instances.WorkloadByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	q := uniform.New(engine.RNG(1, 0), sym12, instances.WorkloadOptions{}).Next()
	req := serve.EvalRequest{Network: "sym12", Mech: "universal-shapley", R: q.R, Profile: q.U}
	c, err := serve.Canonicalize(req, sym12.N(), sym12.Source())
	if err != nil {
		t.Fatal(err)
	}
	kernel("serve.Canonicalize", "n=12", func() { serve.Canonicalize(req, sym12.N(), sym12.Source()) })
	o, err := query.NewEvaluator(sym12).Evaluate(c.Mech, nil, c.Profile)
	if err != nil {
		t.Fatal(err)
	}
	kernel("serve.EncodeOutcome", "n=12", func() { serve.EncodeOutcome(req.Network, c.Mech, o) })
	return build48, rebuild48
}

// ledgerCells writes one line per served-corpus cell (network ×
// supported mechanism): the allocations of one warm pass over the
// cell's three requests through the network's evaluator. Only the exact
// tier is counted. A wireless-bb warm pass replays the trajectory memo;
// the oracle and memtred kernel lines cover its cold path.
func ledgerCells(t *testing.T, w io.Writer) {
	for _, sp := range corpusSpecs() {
		nw, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		cells, err := corpusRequests(sp, nw)
		if err != nil {
			t.Fatal(err)
		}
		ev := query.NewEvaluator(nw)
		for _, cell := range cells {
			reqs := make([]query.Request, len(cell))
			for i, req := range cell {
				c, err := serve.Canonicalize(req, nw.N(), nw.Source())
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = query.Request{Mech: c.Mech, Profile: c.Profile}
				if resp := ev.EvaluateOne(reqs[i]); resp.Err != nil {
					t.Fatalf("%s %s: %v", sp.Name, c.Mech, resp.Err)
				}
			}
			a := countAllocs(func() {
				for _, q := range reqs {
					ev.EvaluateOne(q)
				}
			})
			fmt.Fprintf(w, "query %s %s %d\n", sp.Name, cell[0].Mech, a)
		}
	}
}
