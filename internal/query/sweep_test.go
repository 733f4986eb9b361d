package query

import (
	"fmt"
	"math/rand"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/wireless"
	"wmcs/internal/wmech"
)

// This file is the registry × scenario differential sweep for the
// memoized hot path: every mechanism the registry admits on a scenario
// family, probed at several receiver-set sizes, must answer
// bit-identically (a) at engine widths 1 and 8, (b) on a memo-warm
// evaluator replaying queries it has already seen, (c) against a fresh
// evaluator with cold substrates, (d) for wireless-bb, against a fresh
// mechanism per request, whose one run replays no recorded trajectory,
// and (e) across a VersionedEvaluator.Update, where the new
// generation must match a from-scratch build of the updated network
// (i.e. the retired generation's memo must not leak forward).

// sweepFamily pairs a scenario spec with the registry mechanisms its
// network class admits.
type sweepFamily struct {
	spec  instances.Spec
	mechs []string
}

func sweepFamilies(n int) []sweepFamily {
	general := []string{mechreg.UniversalShapley, mechreg.UniversalMC, mechreg.WirelessBB, mechreg.JVMoat}
	var fams []sweepFamily
	for si, sc := range instances.Scenarios() {
		fams = append(fams, sweepFamily{
			spec:  instances.Spec{Name: "sw-" + sc.Name, Scenario: sc.Name, N: n, Alpha: 2, Seed: int64(900 + si)},
			mechs: general,
		})
	}
	fams = append(fams,
		sweepFamily{
			spec:  instances.Spec{Name: "sw-alpha1", Scenario: "uniform", N: n, Alpha: 1, Seed: 921},
			mechs: []string{mechreg.Alpha1Shapley, mechreg.Alpha1MC},
		},
		sweepFamily{
			spec:  instances.Spec{Name: "sw-line1", Scenario: "line", N: n, Alpha: 2, Seed: 922},
			mechs: []string{mechreg.LineShapley, mechreg.LineMC},
		},
	)
	return fams
}

// sweepRequests builds the family's request grid: every mechanism at
// receiver-set sizes 2, n/2 and n-1, each with a seeded random profile.
func sweepRequests(nw *wireless.Network, mechs []string, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	recvs := nw.AllReceivers()
	var reqs []Request
	for _, name := range mechs {
		for _, size := range []int{2, len(recvs) / 2, len(recvs)} {
			R := append([]int(nil), recvs...)
			rng.Shuffle(len(R), func(i, j int) { R[i], R[j] = R[j], R[i] })
			R = R[:size]
			u := make(mech.Profile, nw.N())
			for _, r := range R {
				u[r] = 1 + rng.Float64()*40
			}
			reqs = append(reqs, Request{Mech: name, R: R, Profile: u})
		}
	}
	return reqs
}

// mutateForUpdate perturbs one station (or, on the abstract family, one
// edge) so the version bumps and most costs of interest change.
func mutateForUpdate(nw *wireless.Network) error {
	if !nw.IsEuclidean() {
		_, err := nw.SetCost(1, 2, nw.CostMatrix().At(1, 2)*1.25+0.1)
		return err
	}
	i := (nw.Source() + 1) % nw.N()
	p := nw.Points()[i].Clone()
	p[0] += 0.07
	_, err := nw.MoveStation(i, p)
	return err
}

func TestRegistryScenarioDifferentialSweep(t *testing.T) {
	const n = 9
	for _, f := range sweepFamilies(n) {
		f := f
		t.Run(f.spec.Name, func(t *testing.T) {
			nw, err := f.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			ve := NewVersioned(nw)
			reqs := sweepRequests(ve.Network(), f.mechs, f.spec.Seed)

			check := func(leg string, got, want []Response) {
				t.Helper()
				for i := range got {
					if (got[i].Err == nil) != (want[i].Err == nil) {
						t.Fatalf("%s req %d (%s): err %v vs %v", leg, i, reqs[i].Mech, got[i].Err, want[i].Err)
					}
					if got[i].Err == nil && !sameOutcome(got[i].Outcome, want[i].Outcome) {
						t.Fatalf("%s req %d (%s, |R|=%d): outcomes diverge\ngot:  %+v\nwant: %+v",
							leg, i, reqs[i].Mech, len(reqs[i].R), got[i].Outcome, want[i].Outcome)
					}
				}
			}

			// (a) engine width must not matter, cold or warm.
			serial := ve.Evaluator().EvaluateBatch(reqs, 1)
			wide := ve.Evaluator().EvaluateBatch(reqs, 8)
			check("width 8 vs 1", wide, serial)

			// (b) a memo-warm evaluator replaying the same queries.
			replay := ve.Evaluator().EvaluateBatch(reqs, 8)
			check("warm replay", replay, serial)

			// (c) a fresh evaluator: cold substrate caches, empty memo.
			fresh := NewEvaluator(ve.Network()).EvaluateBatch(reqs, 1)
			check("fresh evaluator", serial, fresh)

			// (d) wireless-bb on a fresh mechanism per request, outside
			// any evaluator: within one run each pass's active set is
			// strictly smaller than the last, so no memo key repeats and
			// the run replays nothing.
			for i, r := range reqs {
				if r.Mech != mechreg.WirelessBB {
					continue
				}
				if serial[i].Err != nil {
					t.Fatalf("wireless-bb req %d failed: %v", i, serial[i].Err)
				}
				if got := wmech.New(ve.Network(), nil).Run(restrict(r.Profile, r.R)); !sameOutcome(serial[i].Outcome, got) {
					t.Fatalf("memoized wireless-bb diverges from a fresh mechanism (req %d, |R|=%d)\nmemo:  %+v\nfresh: %+v",
						i, len(r.R), serial[i].Outcome, got)
				}
			}

			// (e) across an update, three ways that must agree bitwise:
			// the delta-aware rebuild (default), the full from-scratch
			// rebuild (WithoutDeltaRebuild), and a cold evaluator over
			// the updated network — a stale memo, a wrongly-shared
			// substrate slice, or an unsound incremental reduction
			// would make one of them reproduce the *old* network's
			// answers. Both versioned paths warm the same mechanism set
			// first (the batches above built it), so the comparison
			// covers the warmed instances, not just lazy rebuilds.
			veFull := NewVersioned(nw, WithoutDeltaRebuild())
			veFull.Evaluator().EvaluateBatch(reqs, 1)
			res, err := ve.Update(mutateForUpdate)
			if err != nil {
				t.Fatal(err)
			}
			if res.NewVersion <= res.OldVersion {
				t.Fatalf("update did not bump the version: %d -> %d", res.OldVersion, res.NewVersion)
			}
			if _, err := veFull.Update(mutateForUpdate); err != nil {
				t.Fatal(err)
			}
			after := ve.Evaluator().EvaluateBatch(reqs, 8)
			full := veFull.Evaluator().EvaluateBatch(reqs, 8)
			scratch := NewEvaluator(ve.Network()).EvaluateBatch(reqs, 1)
			check(fmt.Sprintf("post-update v%d delta vs cold", res.NewVersion), after, scratch)
			check(fmt.Sprintf("post-update v%d full vs cold", res.NewVersion), full, scratch)
		})
	}
}
