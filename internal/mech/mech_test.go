package mech

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestOutcomeHelpers(t *testing.T) {
	o := Outcome{
		Receivers: []int{1, 3},
		Shares:    map[int]float64{1: 2, 3: 1},
		Cost:      3,
	}
	if !o.IsReceiver(3) || o.IsReceiver(2) {
		t.Error("IsReceiver wrong")
	}
	if o.Share(1) != 2 || o.Share(2) != 0 {
		t.Error("Share wrong")
	}
	if o.TotalShares() != 3 {
		t.Errorf("TotalShares = %g", o.TotalShares())
	}
	u := Profile{0, 5, 0, 1.5}
	if got := o.Welfare(u, 1); got != 3 {
		t.Errorf("Welfare(1) = %g", got)
	}
	if got := o.Welfare(u, 2); got != 0 {
		t.Errorf("Welfare(2) = %g", got)
	}
	if got := o.NetWorth(u); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("NetWorth = %g", got)
	}
	c := u.Clone()
	c[1] = 99
	if u[1] != 5 {
		t.Error("Clone aliases")
	}
}

func TestAxiomCheckers(t *testing.T) {
	good := Outcome{Receivers: []int{0}, Shares: map[int]float64{0: 1}, Cost: 1}
	u := Profile{2}
	if err := errors.Join(CheckNPT(good), CheckVP(u, good), CheckCostRecovery(good)); err != nil {
		t.Errorf("good outcome rejected: %v", err)
	}
	if err := CheckNPT(Outcome{Shares: map[int]float64{0: -1}}); err == nil {
		t.Error("negative share accepted")
	}
	if err := CheckVP(Profile{0.5}, good); err == nil {
		t.Error("overcharge accepted")
	}
	if err := CheckVP(Profile{2}, Outcome{Receivers: nil, Shares: map[int]float64{0: 1}}); err == nil {
		t.Error("charging a non-receiver accepted")
	}
	if err := CheckCostRecovery(Outcome{Shares: map[int]float64{0: 1}, Cost: 2}); err == nil {
		t.Error("deficit accepted")
	}
	if err := CheckBetaBB(good, 1, 1); err != nil {
		t.Errorf("1-BB rejected: %v", err)
	}
	if err := CheckBetaBB(Outcome{Receivers: []int{0}, Shares: map[int]float64{0: 5}, Cost: 5}, 1, 2); err == nil {
		t.Error("overcharging vs β·opt accepted")
	}
}

// fixedPrice is a strategyproof posted-price mechanism: serve anyone whose
// report meets the price; charge the price.
type fixedPrice struct {
	n     int
	price float64
}

func (m fixedPrice) Name() string { return "fixed-price" }
func (m fixedPrice) Agents() []int {
	out := make([]int, m.n)
	for i := range out {
		out[i] = i
	}
	return out
}
func (m fixedPrice) Run(u Profile) Outcome {
	o := Outcome{Shares: map[int]float64{}}
	for i := 0; i < m.n; i++ {
		if u[i] >= m.price {
			o.Receivers = append(o.Receivers, i)
			o.Shares[i] = m.price
			o.Cost += m.price
		}
	}
	return o
}

// reportProportional charges half the report — blatantly manipulable.
type reportProportional struct{ n int }

func (m reportProportional) Name() string  { return "report-proportional" }
func (m reportProportional) Agents() []int { return fixedPrice{n: m.n}.Agents() }
func (m reportProportional) Run(u Profile) Outcome {
	o := Outcome{Shares: map[int]float64{}}
	for i := 0; i < m.n; i++ {
		if u[i] > 0 {
			o.Receivers = append(o.Receivers, i)
			o.Shares[i] = u[i] / 2
			o.Cost += u[i] / 2
		}
	}
	return o
}

// crowdDiscount gives everyone a lower price when many agents bid high —
// strategyproof for a single agent? No: it is SP-ish individually but a
// coalition jointly exaggerating lowers everyone's price, breaking GSP.
type crowdDiscount struct{ n int }

func (m crowdDiscount) Name() string  { return "crowd-discount" }
func (m crowdDiscount) Agents() []int { return fixedPrice{n: m.n}.Agents() }
func (m crowdDiscount) Run(u Profile) Outcome {
	high := 0
	for i := 0; i < m.n; i++ {
		if u[i] >= 5 {
			high++
		}
	}
	price := 2.0
	if high >= 2 {
		price = 1.0
	}
	o := Outcome{Shares: map[int]float64{}}
	for i := 0; i < m.n; i++ {
		if u[i] >= price {
			o.Receivers = append(o.Receivers, i)
			o.Shares[i] = price
			o.Cost += price
		}
	}
	return o
}

func TestCheckStrategyproof(t *testing.T) {
	truth := Profile{1, 2.5, 0.4, 3}
	if err := CheckStrategyproof(fixedPrice{n: 4, price: 1}, truth, nil); err != nil {
		t.Errorf("fixed price flagged: %v", err)
	}
	if err := CheckStrategyproof(reportProportional{n: 4}, truth, nil); err == nil {
		t.Error("manipulable mechanism passed")
	}
}

func TestCheckGroupStrategyproof(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth := Profile{3, 3, 3, 3}
	if err := CheckGroupStrategyproof(fixedPrice{n: 4, price: 1}, truth, rng, 200, nil); err != nil {
		t.Errorf("fixed price flagged: %v", err)
	}
	if err := CheckGroupStrategyproof(crowdDiscount{n: 4}, truth, rng, 500, nil); err == nil {
		t.Error("collusion-prone mechanism passed")
	}
}

func TestCheckCS(t *testing.T) {
	if err := CheckCS(fixedPrice{n: 3, price: 1}, Profile{0, 0, 0}, 100); err != nil {
		t.Errorf("CS flagged: %v", err)
	}
	// A mechanism that never serves agent 2 fails CS.
	bad := MechanismFunc{
		name:   "never-2",
		agents: []int{0, 1, 2},
		run: func(u Profile) Outcome {
			o := Outcome{Shares: map[int]float64{}}
			for i := 0; i < 2; i++ {
				if u[i] > 0 {
					o.Receivers = append(o.Receivers, i)
				}
			}
			return o
		},
	}
	if err := CheckCS(bad, Profile{0, 0, 0}, 100); err == nil {
		t.Error("CS violation missed")
	}
}

// MechanismFunc is a tiny test helper.
type MechanismFunc struct {
	name   string
	agents []int
	run    func(Profile) Outcome
}

func (m MechanismFunc) Name() string          { return m.name }
func (m MechanismFunc) Agents() []int         { return m.agents }
func (m MechanismFunc) Run(u Profile) Outcome { return m.run(u) }

func TestBruteForceNetWorth(t *testing.T) {
	agents := []int{0, 1, 2}
	u := Profile{2, 3, 1}
	// C(R) = 2·|R|: serve exactly those with u_i > 2 → {1}, NW = 1.
	cost := func(R []int) float64 { return 2 * float64(len(R)) }
	if got := BruteForceNetWorth(agents, u, cost); math.Abs(got-1) > 1e-12 {
		t.Errorf("NW = %g want 1", got)
	}
	// Empty set is allowed: all utilities below cost → NW 0.
	if got := BruteForceNetWorth(agents, Profile{0.1, 0.1, 0.1}, cost); got != 0 {
		t.Errorf("NW = %g want 0", got)
	}
}

func TestProfiles(t *testing.T) {
	u := UniformProfile(3, 2.5)
	if len(u) != 3 || u[2] != 2.5 {
		t.Errorf("UniformProfile = %v", u)
	}
	r := RandomProfile(rand.New(rand.NewSource(1)), 5, 4)
	if len(r) != 5 {
		t.Fatalf("len = %d", len(r))
	}
	for _, v := range r {
		if v < 0 || v >= 4 {
			t.Errorf("value %g out of range", v)
		}
	}
}

func TestDefaultDeviationFactorsSorted(t *testing.T) {
	f := append([]float64(nil), DefaultDeviationFactors...)
	sort.Float64s(f)
	if f[0] != 0 {
		t.Error("factor 0 (drop out) must be present")
	}
	hasOver := false
	for _, v := range f {
		if v > 1 {
			hasOver = true
		}
	}
	if !hasOver {
		t.Error("over-reporting factors must be present")
	}
}
