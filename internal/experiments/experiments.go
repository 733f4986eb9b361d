// Package experiments implements the simulated evaluation of the paper:
// one experiment per theorem/figure (see DESIGN.md §4), each producing a
// text table in the style of an evaluation section. The paper itself is
// purely theoretical, so these tables are the "figures" the reproduction
// regenerates: measured budget-balance ratios against exact optima,
// axiom-violation counts under adversarial deviation sampling, the Fig. 1
// collusion walkthrough, and the Fig. 2 empty-core family.
//
// Every experiment is organized as a batch of independent cells — one
// cell per (configuration, trial) pair, each with its own derived RNG —
// scheduled on the internal/engine worker pool (DESIGN.md §5). Cell
// results are collected in index order, so the rendered tables are
// byte-identical at every worker count.
package experiments

import (
	"bytes"
	"io"
	"math/rand"

	"wmcs/internal/engine"
	"wmcs/internal/stats"
)

// Config tunes experiment sizes and scheduling. Quick mode shrinks trial
// counts so the whole suite stays in benchmark-friendly time.
type Config struct {
	Quick bool
	// Workers bounds the evaluation engine's concurrency: 1 runs fully
	// serial, anything ≤ 0 selects GOMAXPROCS. The bound is global —
	// RunAll threads one token pool through every nested Map — and
	// output is byte-identical at every setting.
	Workers int
	// pool, when set (RunAll), is the shared engine pool enforcing the
	// global Workers bound across experiments and their cells.
	pool *engine.Pool
}

func (c Config) trials(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Pool returns the engine pool the experiment cells are scheduled on:
// the shared pool inside a RunAll, or a fresh one for a standalone
// experiment run (where a single cells() Map is live at a time, so the
// per-call pool is the global bound).
func (c Config) Pool() *engine.Pool {
	if c.pool != nil {
		return c.pool
	}
	return engine.New(c.Workers)
}

// shared returns a copy of c carrying one pool for every nested Map.
func (c Config) shared() Config {
	c.pool = engine.New(c.Workers)
	return c
}

// cells evaluates fn over n independent tasks under cfg's pool and
// returns the results in task order. Each task receives a private RNG
// derived from (seed, task), so results do not depend on scheduling; an
// experiment that needs a second stream inside one task (e.g. to rebuild
// a per-row network shared by many cells) derives it with
// engine.RNG(seed, setupTask+k) for setupTask offsets ≥ setupBase.
func cells[T any](cfg Config, seed int64, n int, fn func(task int, rng *rand.Rand) T) []T {
	return engine.Map(cfg.Pool(), n, func(i int) T { return fn(i, engine.RNG(seed, i)) })
}

// setupBase offsets the task space used for per-row setup RNGs (network
// construction shared by every trial of a row) away from per-cell RNGs.
const setupBase = 1 << 20

// setupRNG derives the RNG for per-row instance construction: every cell
// of a row rebuilds the identical instance from it, which keeps cells
// share-nothing without sharing a generator.
func setupRNG(seed int64, row int) *rand.Rand {
	return engine.RNG(seed, setupBase+row)
}

// Experiment is a named runner in the registry.
type Experiment struct {
	ID   string
	Name string
	Run  func(cfg Config) *stats.Table
}

// All lists every experiment in DESIGN.md §4 order.
var All = []Experiment{
	{ID: "E1", Name: "Lemma 2.1: universal-tree cost is monotone & submodular", Run: E01UniversalSubmodular},
	{ID: "E2", Name: "§2.1: universal-tree Shapley mechanism (BB, GSP)", Run: E02UniversalShapley},
	{ID: "E3", Name: "§2.1: universal-tree MC mechanism (efficiency, SP)", Run: E03UniversalMC},
	{ID: "E4", Name: "Fig. 1: NWST collusion counterexample replay", Run: E04Fig1Collusion},
	{ID: "E5", Name: "Thm 2.2/2.3: NWST mechanism ratio & SP (oracle ablation A2)", Run: E05NWSTMechanism},
	{ID: "E6", Name: "§2.2.3: wireless mechanism β-BB vs 3·ln(k+1)", Run: E06WirelessBB},
	{ID: "E7", Name: "Lemma 3.1 (α=1): airport mechanisms", Run: E07Alpha1},
	{ID: "E8", Name: "Lemma 3.1 (d=1): line mechanisms & canonical-form gap", Run: E08Line},
	{ID: "E9", Name: "Lemma 3.3 / Fig. 2: pentagon empty core", Run: E09PentagonCore},
	{ID: "E10", Name: "Lemmas 3.4/3.5: MST broadcast ratio vs 3^d−1", Run: E10MSTRatio},
	{ID: "E11", Name: "Thms 3.6/3.7: JV moat mechanism (weights ablation A3)", Run: E11MoatMechanism},
	{ID: "E12", Name: "Multicast heuristics vs exact optimum (who wins where)", Run: E12MulticastHeuristics},
	{ID: "E13", Name: "Scenario sweep: mechanisms × topology families", Run: E13ScenarioSweep},
	{ID: "E14", Name: "Lifecycle: cost-share stability under ε-perturbations", Run: E14ShareStability},
	{ID: "E15", Name: "Lifecycle: delta-aware update latency (DESIGN.md §12)", Run: E15UpdateLatency},
	{ID: "E15b", Name: "Lifecycle: full-rebuild update baseline (control for E15)", Run: E15bUpdateLatencyFull},
	{ID: "A1", Name: "Ablation: universal tree choice SPT vs MST", Run: A01TreeChoice},
	{ID: "A4", Name: "Ablation: efficiency loss, Shapley vs incremental [38]", Run: A04EfficiencyLoss},
}

// RunAll executes every experiment and renders the tables to w in
// registry order. Experiments run concurrently under cfg's pool (each
// rendering into its own buffer), and their cells are parallel too, so
// the suite's wall clock approaches the heaviest single cell — while the
// bytes written are identical to a Workers: 1 run.
func RunAll(w io.Writer, cfg Config) {
	cfg = cfg.shared()
	rendered := engine.Map(cfg.Pool(), len(All), func(i int) []byte {
		var buf bytes.Buffer
		All[i].Run(cfg).Render(&buf)
		return buf.Bytes()
	})
	for _, b := range rendered {
		w.Write(b)
	}
}

// RunAllJSON is RunAll with machine-readable output: one JSON object per
// table, one per line, in registry order.
func RunAllJSON(w io.Writer, cfg Config) error {
	cfg = cfg.shared()
	tables := engine.Map(cfg.Pool(), len(All), func(i int) *stats.Table {
		return All[i].Run(cfg)
	})
	for _, t := range tables {
		if err := t.RenderJSON(w); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the experiment with the given ID, or nil.
func Lookup(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}
