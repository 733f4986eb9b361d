package mechreg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/sharing"
)

// TestRunApproxWalkMatchesSortedPrefixes: every mechanism with a sampled
// tier prices its permutations with its game's one-pass walk, and on
// every scenario its descriptor supports (α = 1 and 2, n = 8, 12 and 32)
// the walk's RunApprox answers bit for bit what the same mechanism
// answers with Prefixes nil, which prices each sorted prefix with one
// Cost call: receivers, shares, cost and certificate.
func TestRunApproxWalkMatchesSortedPrefixes(t *testing.T) {
	spec := mech.ApproxSpec{Samples: 96, Delta: 0.05, Seed: 7}
	rng := rand.New(rand.NewSource(19))
	sawPartial := false
	for _, d := range All() {
		if !d.Approx {
			continue
		}
		cells := 0
		for si, sc := range instances.Scenarios() {
			for _, alpha := range []float64{1, 2} {
				for _, n := range []int{8, 12, 32} {
					nw, err := instances.Spec{Scenario: sc.Name, N: n, Alpha: alpha, Seed: int64(100*si + n)}.Build()
					if err != nil {
						t.Fatal(err)
					}
					m, err := Build(d.Name, NewBuildContext(nw))
					if errors.Is(err, ErrUnsupportedDomain) {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					cells++
					walk, ok := m.(namedApprox).ar.(*sharing.MechanismFromMethod)
					if !ok || walk.Prefixes == nil {
						t.Fatalf("%s: the sampled tier has no one-pass pricer", d.Name)
					}
					ref := *walk
					ref.Prefixes = nil
					// Utilities around the average share, so that some
					// agents drop and Moulin–Shenker runs several rounds,
					// and one profile where everyone is served.
					recv := nw.AllReceivers()
					scale := 2 * walk.Cost(recv) / float64(len(recv))
					us := []mech.Profile{mech.UniformProfile(nw.N(), 1e9)}
					for q := 0; q < 3; q++ {
						u := make(mech.Profile, nw.N())
						for _, r := range recv {
							u[r] = scale * rng.Float64()
						}
						us = append(us, u)
					}
					for q, u := range us {
						label := fmt.Sprintf("%s on %s α=%g n=%d profile %d", d.Name, sc.Name, alpha, n, q)
						got, gotCert, err := walk.RunApprox(u, spec)
						if err != nil {
							t.Fatal(err)
						}
						want, wantCert, err := ref.RunApprox(u, spec)
						if err != nil {
							t.Fatal(err)
						}
						if !sameOutcomeBits(got, want) || gotCert != wantCert {
							t.Fatalf("%s: the walk answers %+v %+v, sorted prefixes %+v %+v", label, got, gotCert, want, wantCert)
						}
						sawPartial = sawPartial || (len(got.Receivers) > 0 && len(got.Receivers) < len(recv))
					}
				}
			}
		}
		if cells == 0 {
			t.Fatalf("%s: no scenario supports it; the check covers nothing", d.Name)
		}
	}
	if !sawPartial {
		t.Fatal("no profile left a partial receiver set; the check runs one Moulin–Shenker round only")
	}
}

// sameOutcomeBits reports whether two outcomes serve the same receivers
// with bit-equal shares and cost.
func sameOutcomeBits(a, b mech.Outcome) bool {
	if len(a.Receivers) != len(b.Receivers) || len(a.Shares) != len(b.Shares) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return false
	}
	for i, r := range a.Receivers {
		if b.Receivers[i] != r {
			return false
		}
	}
	for r, s := range a.Shares {
		if t, ok := b.Shares[r]; !ok || math.Float64bits(s) != math.Float64bits(t) {
			return false
		}
	}
	return true
}
