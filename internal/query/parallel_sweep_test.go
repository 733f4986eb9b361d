package query

import (
	"math"
	"testing"

	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
)

// This file is the width-1 ≡ width-N differential sweep (DESIGN.md §14):
// over the full registry × scenario grid, an evaluator built with
// WithWidth must answer bit-identically at every width — exact outcomes,
// sampled outcomes, AND the (ε, δ) certificates.

// sameCert compares approx certificates bitwise (nil == nil).
func sameCert(a, b *mech.ApproxCert) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Samples == b.Samples && a.Delta == b.Delta &&
		math.Float64bits(a.Epsilon) == math.Float64bits(b.Epsilon) &&
		math.Float64bits(a.DeltaMax) == math.Float64bits(b.DeltaMax)
}

// withApproxTier appends, for every mechanism in reqs that declares a
// sampled tier, a copy of each of its requests routed through that tier.
func withApproxTier(reqs []Request) []Request {
	out := append([]Request(nil), reqs...)
	for _, r := range reqs {
		d, err := mechreg.ByName(r.Mech)
		if err != nil || !d.Approx {
			continue
		}
		ar := r
		ar.Approx = &mech.ApproxSpec{Samples: 48, Delta: 0.1, Seed: 31}
		out = append(out, ar)
	}
	return out
}

func TestParallelWidthInvariantSweep(t *testing.T) {
	const n = 9
	for _, f := range sweepFamilies(n) {
		f := f
		t.Run(f.spec.Name, func(t *testing.T) {
			nw, err := f.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			reqs := withApproxTier(sweepRequests(nw, f.mechs, f.spec.Seed))

			base := NewEvaluator(nw, WithWidth(1)).EvaluateBatch(reqs, 1)
			for _, width := range []int{2, 3, 8} {
				pw := NewEvaluator(nw, WithWidth(width))
				got := pw.EvaluateBatch(reqs, 1)
				for i := range got {
					if (got[i].Err == nil) != (base[i].Err == nil) {
						t.Fatalf("width %d req %d (%s): err %v vs %v",
							width, i, reqs[i].Mech, got[i].Err, base[i].Err)
					}
					if got[i].Err != nil {
						continue
					}
					if !sameOutcome(got[i].Outcome, base[i].Outcome) {
						t.Fatalf("width %d req %d (%s, approx=%v, |R|=%d): outcomes diverge\ngot:  %+v\nwant: %+v",
							width, i, reqs[i].Mech, reqs[i].Approx != nil, len(reqs[i].R),
							got[i].Outcome, base[i].Outcome)
					}
					if !sameCert(got[i].Cert, base[i].Cert) {
						t.Fatalf("width %d req %d (%s): certificates diverge\ngot:  %+v\nwant: %+v",
							width, i, reqs[i].Mech, got[i].Cert, base[i].Cert)
					}
				}
			}
		})
	}
}

// width reports the spider-oracle width an evaluator was built with.
func width(e *Evaluator) int { return e.ctx.Pool.Workers() }

// TestParallelSurvivesVersionedUpdate: WithWidth is part of the
// versioned evaluator's option set, so every rebuilt generation keeps
// the configured width, and post-update answers still match a cold
// width-1 evaluator over the updated network.
func TestParallelSurvivesVersionedUpdate(t *testing.T) {
	f := sweepFamilies(9)[0]
	nw, err := f.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ve := NewVersioned(nw, WithWidth(4))
	if w := width(ve.Evaluator()); w != 4 {
		t.Fatalf("pre-update width = %d, want 4", w)
	}
	reqs := withApproxTier(sweepRequests(ve.Network(), f.mechs, f.spec.Seed))
	ve.Evaluator().EvaluateBatch(reqs, 1) // warm the mechanism set
	if _, err := ve.Update(mutateForUpdate); err != nil {
		t.Fatal(err)
	}
	if w := width(ve.Evaluator()); w != 4 {
		t.Fatalf("post-update width = %d, want 4 (options must carry across swaps)", w)
	}
	after := ve.Evaluator().EvaluateBatch(reqs, 1)
	cold := NewEvaluator(ve.Network()).EvaluateBatch(reqs, 1)
	for i := range after {
		if (after[i].Err == nil) != (cold[i].Err == nil) {
			t.Fatalf("req %d (%s): err %v vs %v", i, reqs[i].Mech, after[i].Err, cold[i].Err)
		}
		if after[i].Err == nil && (!sameOutcome(after[i].Outcome, cold[i].Outcome) || !sameCert(after[i].Cert, cold[i].Cert)) {
			t.Fatalf("post-update width-4 diverges from cold width-1 (req %d, %s)", i, reqs[i].Mech)
		}
	}
}

// TestParallelSpecValidation pins the width option's contract: widths
// below 1 panic (auto-width is the flag layer's job), the default and
// width 1 scan serially, and wider widths build a pool of that width.
func TestParallelSpecValidation(t *testing.T) {
	for _, w := range []int{0, -1, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithWidth(%d) did not panic", w)
				}
			}()
			WithWidth(w)
		}()
	}
	for _, c := range []struct {
		opts []Option
		want int
	}{{nil, 1}, {[]Option{WithWidth(1)}, 1}, {[]Option{WithWidth(2)}, 2}, {[]Option{WithWidth(8)}, 8}} {
		if got := width(NewEvaluator(nil, c.opts...)); got != c.want {
			t.Fatalf("width = %d, want %d", got, c.want)
		}
	}
}
