package instances

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"wmcs/internal/wireless"
)

// Spec names one network drawn from the scenario registry: the scenario
// family plus the generator parameters. It is the unit of manifest-driven
// construction — the serving layer's startup manifests and the workload
// driver both describe their networks as Specs — and it is deterministic:
// the same Spec always builds the same network, because the generator rng
// is seeded from the Spec alone.
type Spec struct {
	// Name is the handle the network is registered under. Optional for
	// direct Build calls; the serving registry requires it.
	Name string `json:"name"`
	// Scenario is a registry family name (see ScenarioNames), or "euclid",
	// the CLI's legacy spelling of "uniform" honouring Dim.
	Scenario string `json:"scenario"`
	// N is the station count (station 0 is the source in every family but
	// "line").
	N int `json:"n"`
	// Alpha is the distance-power gradient (ignored by "symmetric";
	// defaulted to 2 when zero).
	Alpha float64 `json:"alpha,omitempty"`
	// Seed seeds the generator rng.
	Seed int64 `json:"seed"`
	// Dim is the Euclidean dimension for the legacy "euclid" scenario
	// (defaulted to 2 when zero); registry families fix their own geometry.
	Dim int `json:"dim,omitempty"`
}

// String renders the spec compactly for logs and table headers.
func (s Spec) String() string {
	name := s.Name
	if name == "" {
		name = s.Scenario
	}
	return fmt.Sprintf("%s(%s n=%d α=%g seed=%d)", name, s.Scenario, s.N, s.Alpha, s.Seed)
}

// ParseManifest reads a manifest — a JSON array of Specs — rejecting
// unknown fields so typos fail loudly at parse time. It is the one
// manifest parser: the serving registry and the workload driver both
// use it, so a manifest one accepts the other accepts too. Nothing but
// whitespace may follow the array.
func ParseManifest(src io.Reader) ([]Spec, error) {
	var specs []Spec
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(&specs)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return specs, nil
		}
		if err == nil {
			err = errors.New("trailing data after the array")
		}
	}
	return nil, fmt.Errorf("instances: parsing manifest: %w", err)
}

// MaxStations is the largest station count a Spec builds. Every network
// is a dense n×n cost matrix, so the cap bounds what one registration
// allocates: 8 MiB of costs at n = 1024.
const MaxStations = 1024

// MaxDim is the largest dimension the legacy "euclid" scenario accepts.
const MaxDim = 8

// Build draws the spec's network. It validates the scenario name, the
// station count, α and Dim (after their defaults) before allocating
// anything, rejects a network with a cost that is negative, not finite
// or at least wireless.DisabledCost (such a cost would let a disabled
// station relay), and returns the same network for the same spec every
// time.
func (s Spec) Build() (*wireless.Network, error) {
	if s.N < 2 || s.N > MaxStations {
		return nil, fmt.Errorf("instances: spec %q needs 2 <= n <= %d stations, have %d", s.Name, MaxStations, s.N)
	}
	alpha := s.Alpha
	if alpha == 0 {
		alpha = 2
	}
	if !(alpha >= 1) || math.IsInf(alpha, 1) {
		return nil, fmt.Errorf("instances: spec %q needs a finite alpha >= 1, have %g", s.Name, alpha)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var nw *wireless.Network
	if s.Scenario == "euclid" {
		d := s.Dim
		if d == 0 {
			d = 2
		}
		if d < 1 || d > MaxDim {
			return nil, fmt.Errorf("instances: spec %q needs 1 <= dim <= %d, have %d", s.Name, MaxDim, d)
		}
		nw = RandomEuclidean(rng, s.N, d, alpha, 10)
	} else {
		sc, err := ScenarioByName(s.Scenario)
		if err != nil {
			return nil, err
		}
		nw = sc.Gen(rng, s.N, alpha)
	}
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			if c := nw.C(i, j); !(c >= 0 && c < wireless.DisabledCost) {
				return nil, fmt.Errorf("instances: spec %q builds cost C(%d,%d) = %g, outside [0, %g)", s.Name, i, j, c, wireless.DisabledCost)
			}
		}
	}
	return nw, nil
}
