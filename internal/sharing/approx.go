package sharing

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// This file implements the approximate Shapley tier: sampled-permutation
// estimation with an explicit Hoeffding certificate. The exact method
// (Shapley) enumerates 2^k subsets, which caps the set size at 20. The
// sampled tier has no cap: the work is m sampled permutations, each
// priced in one PrefixCost pass. It keeps no subset-cost memo: at the
// sizes it serves almost every permutation prefix is a distinct subset,
// so keying and probing a memo cost more than the calls it saved.

// PrefixCost prices every prefix of an order in one pass: it sets
// out[i] = C(order[:i+1]) for each i < len(order), len(out) ≥ len(order).
// order lists distinct agents, and each out[i] must carry the bits C
// returns for the sorted prefix, so a game whose cost extends along an
// order (a union of root paths, a running extreme) prices a permutation
// in one walk instead of one C call per prefix.
type PrefixCost func(order []int, out []float64)

// sortedPrefixes is the PrefixCost of any cost oracle: it inserts each
// agent into a sorted prefix and prices the prefix with one cost call.
// The prefix buffer lives in the closure and is reused across calls, so
// one adapter must not serve two goroutines at once.
func sortedPrefixes(cost CostFunc) PrefixCost {
	var prefix []int
	return func(order []int, out []float64) {
		prefix = prefix[:0]
		for i, a := range order {
			at := sort.SearchInts(prefix, a)
			prefix = append(prefix, 0)
			copy(prefix[at+1:], prefix[at:])
			prefix[at] = a
			out[i] = cost(prefix)
		}
	}
}

// ApproxCert is the statistical guarantee attached to a sampled Shapley
// evaluation: with probability at least 1−Delta, every agent's reported
// share is within Epsilon of its exact Shapley value.
//
// The bound is Hoeffding's inequality union-bounded over the agents: a
// permutation marginal of a non-decreasing submodular cost lies in
// [0, Δmax] where Δmax = max_i C({i}) (submodularity makes the singleton
// marginal the largest), so the mean of m independent marginals deviates
// from its expectation — the exact Shapley value — by more than
//
//	ε = Δmax · sqrt(ln(2k/δ) / (2m))
//
// with probability at most δ/k per agent, hence at most δ overall.
type ApproxCert struct {
	Samples  int     // permutations drawn
	Epsilon  float64 // per-agent additive error bound
	Delta    float64 // probability the bound fails for some agent
	DeltaMax float64 // observed marginal range Δmax the bound used
}

// SampledShapley estimates Shapley shares by averaging marginal vectors
// over m uniformly random permutations, drawn from a deterministic
// seeded generator: equal (seed, samples, R) inputs reproduce equal
// bytes, which is what lets the serving layer cache approximate results
// under a canonical key. It implements Method; SharesCert additionally
// returns the (ε, δ) certificate.
type SampledShapley struct {
	cost CostFunc
	// prefixes, when set, prices each permutation in one pass; nil
	// prices it through cost, one sorted-prefix call per prefix.
	prefixes PrefixCost
	samples  int
	delta    float64
	seed     int64
}

// NewSampledShapley builds the sampled method: m permutation samples per
// evaluation, failure budget delta ∈ (0,1), and a seed pinning the
// permutation stream. Unlike the exact method there is no agent cap.
// Every call estimates the R it is given, so the agent set is not kept.
func NewSampledShapley(agents []int, cost CostFunc, samples int, delta float64, seed int64) (*SampledShapley, error) {
	if samples < 1 {
		return nil, fmt.Errorf("sharing: sampled Shapley needs at least 1 sample, got %d", samples)
	}
	if !(delta > 0 && delta < 1) {
		return nil, fmt.Errorf("sharing: sampled Shapley delta must be in (0,1), got %g", delta)
	}
	return &SampledShapley{cost: cost, samples: samples, delta: delta, seed: seed}, nil
}

// cert returns the Hoeffding certificate of an estimate over the agent
// set R. It depends only on |R|, the sample count, δ and Δmax, the
// largest singleton cost, so it costs |R| oracle calls and no
// permutation walk.
func (s *SampledShapley) cert(R []int) ApproxCert {
	k := len(R)
	if k == 0 {
		return ApproxCert{Samples: s.samples, Delta: s.delta}
	}
	var dmax float64
	single := make([]int, 1)
	for _, a := range R {
		single[0] = a
		if c := s.cost(single); c > dmax {
			dmax = c
		}
	}
	eps := dmax * math.Sqrt(math.Log(2*float64(k)/s.delta)/(2*float64(s.samples)))
	return ApproxCert{Samples: s.samples, Epsilon: eps, Delta: s.delta, DeltaMax: dmax}
}

// Shares implements Method: the estimate alone, without the
// certificate's oracle calls. Each permutation is a shuffle of the
// positions 0..k−1 of R's sorted members, priced prefix by prefix in
// one pass; agent members[p]'s marginals add up in sums[p].
func (s *SampledShapley) Shares(R []int) map[int]float64 {
	k := len(R)
	if k == 0 {
		return map[int]float64{}
	}
	members := append([]int(nil), R...)
	sort.Ints(members)
	price := s.prefixes
	if price == nil {
		price = sortedPrefixes(s.cost)
	}

	rng := rand.New(rand.NewSource(s.permSeed(members)))
	sums := make([]float64, k)
	pos := make([]int, k)
	order := make([]int, k)
	costs := make([]float64, k)
	for t := 0; t < s.samples; t++ {
		for i := range pos {
			pos[i] = i
		}
		rng.Shuffle(k, func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
		for i, p := range pos {
			order[i] = members[p]
		}
		price(order, costs)
		prev := 0.0
		for i, p := range pos {
			sums[p] += costs[i] - prev
			prev = costs[i]
		}
	}
	shares := make(map[int]float64, k)
	for i, a := range members {
		shares[a] = sums[i] / float64(s.samples)
	}
	return shares
}

// SharesCert estimates the Shapley shares of R and returns the Hoeffding
// certificate of the estimate. The permutation stream is derived from
// the instance seed and the canonical members of R, so equal queries
// reproduce equal bytes regardless of call order.
func (s *SampledShapley) SharesCert(R []int) (map[int]float64, ApproxCert) {
	return s.Shares(R), s.cert(R)
}

// permSeed mixes the instance seed with the canonical receiver set.
func (s *SampledShapley) permSeed(sorted []int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(s.seed))
	h.Write(b[:])
	for _, a := range sorted {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		h.Write(b[:])
	}
	return int64(h.Sum64())
}
