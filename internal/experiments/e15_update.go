package experiments

import (
	"fmt"
	"reflect"

	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/query"
	"wmcs/internal/stats"
	"wmcs/internal/wireless"
)

// E15UpdateLatency measures the delta-aware update path (DESIGN.md §12):
// a stream of single-row SetCost mutations through a VersionedEvaluator
// whose outgoing evaluator owns both the MEMT→NWST reduction and the
// universal-shapley mechanism. Each update must take the incremental
// path — memtred.Rebuild reuses every clean station's runs, so the
// per-update cost scales with the two dirty rows instead of the full
// n³ reduction build — and every probe must answer bitwise-identically
// to a cold evaluator over the same snapshot. The cost signal lives in
// the count ledger (testdata/golden/count_ledger.txt), whose test
// asserts that memtred.Rebuild at n = 48 allocates at most a fifth of
// what memtred.New allocates — the incremental path against the
// full-rebuild baseline below, counted exactly.
func E15UpdateLatency(cfg Config) *stats.Table {
	return e15Run(cfg, false,
		"E15 — delta-aware update latency (single-row SetCost stream)")
}

// E15bUpdateLatencyFull is the control: the identical update stream
// through a WithoutDeltaRebuild evaluator, which rebuilds the reduction
// from scratch on every update. Its table must agree with E15's on
// everything except the incremental count (0 here); the count ledger's
// memtred.New and memtred.Rebuild lines measure the gap between the two.
func E15bUpdateLatencyFull(cfg Config) *stats.Table {
	return e15Run(cfg, true,
		"E15b — full-rebuild update baseline (WithoutDeltaRebuild)")
}

func e15Run(cfg Config, fullRebuild bool, title string) *stats.Table {
	t := stats.NewTable(title,
		"n", "updates", "incremental", "probes", "mismatches")
	n := 96
	if cfg.Quick {
		n = 48
	}
	updates := cfg.trials(60, 12)

	rng := setupRNG(151, 0)
	sc, err := instances.ScenarioByName("symmetric")
	if err != nil {
		panic(err)
	}
	nw := sc.Gen(rng, n, 2)
	u := mech.RandomProfile(rng, n, 60)
	var opts []query.Option
	if fullRebuild {
		opts = append(opts, query.WithoutDeltaRebuild())
	}
	ve := query.NewVersioned(nw, opts...)
	// Warm the working set the update stream keeps rebuilding: the
	// reduction substrate (built, never Run — Klein–Ravi at this n is an
	// experiment of its own) and the universal-shapley mechanism the
	// probes query.
	ve.Evaluator().Reduction()
	if _, err := ve.Evaluator().Mechanism("universal-shapley"); err != nil {
		panic(err)
	}

	incremental, probes, mismatches := 0, 0, 0
	for k := 0; k < updates; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		factor := 0.8 + rng.Float64()*0.4
		res, err := ve.Update(func(nw *wireless.Network) error {
			_, err := nw.SetCost(i, j, nw.C(i, j)*factor)
			return err
		})
		if err != nil {
			panic(err)
		}
		if res.Incremental {
			incremental++
		}
		if k%6 == 5 {
			// Byte-identity audit: the warmed evaluator against a cold one
			// over the same frozen snapshot.
			probes++
			got, err := ve.Evaluator().Evaluate("universal-shapley", nil, u)
			if err != nil {
				panic(err)
			}
			want, err := query.NewEvaluator(ve.Network()).Evaluate("universal-shapley", nil, u)
			if err != nil {
				panic(err)
			}
			if !reflect.DeepEqual(got, want) {
				mismatches++
			}
		}
	}
	t.Add(fmt.Sprint(n), fmt.Sprint(updates), fmt.Sprint(incremental),
		fmt.Sprint(probes), fmt.Sprint(mismatches))
	t.Note("one versioned evaluator, warm reduction + universal-shapley; each update is a single-row SetCost (random pair, x0.8..1.2)")
	t.Note("incremental counts updates that seeded the reduction via memtred.Rebuild; mismatches must be 0 (warm vs cold bitwise)")
	t.Note("cost is the point: count_ledger.txt's memtred.Rebuild/New lines, gated as Rebuild <= 0.2 * New at n = 48")
	return t
}
