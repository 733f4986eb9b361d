package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"wmcs/internal/sharing"
	"wmcs/internal/stats"
)

// E16 times the exact Shapley method (DESIGN.md §14): the blocked
// flat-table enumeration of Shapley.SharesParallel at k = 18 on the
// experiment pool. The measured signal is benchtab -timings wall_ms; on
// a multi-core runner the blocks spread across the pool, with bytes
// unchanged at any width.

// e16K is the enumeration size: 2^18 subsets, the "k ≥ 18 receivers"
// point the exact tier is specified to handle.
const e16K = 18

// e16Cost builds the oracle: k agents each covering a fixed
// random subset of m weighted ground elements, C(R) = total weight
// covered. Monotone and submodular (coverage), and cheap — a few OR and
// bit-walk ops — so the 2^k enumeration machinery, not the oracle,
// dominates what E16 times.
func e16Cost(k int) (agents []int, cost sharing.CostFunc) {
	const m = 48
	rng := setupRNG(161, 0)
	weights := make([]float64, m)
	for e := range weights {
		weights[e] = 1 + rng.Float64()*9
	}
	covers := make([]uint64, k)
	for i := range covers {
		for e := 0; e < m; e++ {
			if rng.Intn(3) == 0 { // ~16 elements per agent
				covers[i] |= 1 << uint(e)
			}
		}
	}
	agents = make([]int, k)
	for i := range agents {
		agents[i] = i
	}
	cost = func(R []int) float64 {
		var mask uint64
		for _, a := range R {
			mask |= covers[a]
		}
		var c float64
		for mask != 0 {
			c += weights[bits.TrailingZeros64(mask)]
			mask &= mask - 1
		}
		return c
	}
	return agents, cost
}

// E16ParallelShapley runs the blocked flat-table exact enumeration on
// the experiment pool.
func E16ParallelShapley(cfg Config) *stats.Table {
	// The title and notes keep their rendered bytes so suite outputs stay
	// comparable across commits; the E16b they name is the control the
	// committed BENCH_pr7 → BENCH_pr8 gate (E16 <= 0.4 * E16b) still
	// reads.
	t := stats.NewTable("E16 — exact Shapley, blocked flat-table tier (SharesParallel)",
		"k", "trials", "C(R)", "sum shares", "balance resid", "max share", "min share")
	k := e16K
	if cfg.Quick {
		k = 12
	}
	trials := cfg.trials(2, 1)
	agents, cost := e16Cost(k)

	var shares map[int]float64
	for trial := 0; trial < trials; trial++ {
		// A fresh method per trial: the memo cache must start cold each
		// time or later trials would time memo hits instead of the
		// enumeration.
		shares = sharing.NewShapley(agents, cost).SharesParallel(agents, cfg.Pool())
	}
	grand := cost(agents)
	var sum float64
	maxSh, minSh := math.Inf(-1), math.Inf(1)
	for _, a := range agents {
		sh := shares[a]
		sum += sh
		maxSh = math.Max(maxSh, sh)
		minSh = math.Min(minSh, sh)
	}
	t.Add(fmt.Sprint(k), fmt.Sprint(trials), stats.F(grand), stats.F(sum),
		stats.F(math.Abs(sum-grand)), stats.F(maxSh), stats.F(minSh))
	t.Note("one weighted-coverage instance (48 elements), fresh method per trial so the 2^k enumeration is what's timed")
	t.Note("budget balance is the correctness check here; cross-tier byte identity is pinned in sharing's parallel tests")
	t.Note("latency is the point: benchtab -timings wall_ms, gated in CI as E16 <= 0.4 * E16b")
	return t
}
