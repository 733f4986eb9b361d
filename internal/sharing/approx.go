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
// sampled tier has no cap:
// subsets are keyed by canonical byte strings, and the work is m·k oracle
// calls for m sampled permutations — with a persistent subset-cost memo,
// so permutations sharing prefixes, repeated queries, and Moulin–Shenker
// rounds over overlapping receiver sets all reuse each other's
// evaluations.

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
	agents  []int
	cost    CostFunc
	samples int
	delta   float64
	seed    int64
	// cache memoizes C by the subset's canonical key: its sorted members
	// as uvarints. key is the probe buffer costOfSorted reuses, so a
	// probe allocates nothing and only an insert copies the key.
	cache map[string]float64
	key   []byte
	// Queries and Hits count oracle calls and memo hits.
	Queries, Hits int
}

// NewSampledShapley builds the sampled method: m permutation samples per
// evaluation, failure budget delta ∈ (0,1), and a seed pinning the
// permutation stream. Unlike the exact method there is no agent cap.
func NewSampledShapley(agents []int, cost CostFunc, samples int, delta float64, seed int64) (*SampledShapley, error) {
	if samples < 1 {
		return nil, fmt.Errorf("sharing: sampled Shapley needs at least 1 sample, got %d", samples)
	}
	if !(delta > 0 && delta < 1) {
		return nil, fmt.Errorf("sharing: sampled Shapley delta must be in (0,1), got %g", delta)
	}
	s := &SampledShapley{
		agents:  append([]int(nil), agents...),
		cost:    cost,
		samples: samples,
		delta:   delta,
		seed:    seed,
		cache:   map[string]float64{},
	}
	sort.Ints(s.agents)
	return s, nil
}

// costOfSorted returns C of a sorted subset, memoized across every
// evaluation this instance has performed.
func (s *SampledShapley) costOfSorted(sorted []int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	s.key = s.key[:0]
	for _, a := range sorted {
		s.key = binary.AppendUvarint(s.key, uint64(a))
	}
	if c, ok := s.cache[string(s.key)]; ok {
		s.Hits++
		return c
	}
	s.Queries++
	c := s.cost(sorted)
	s.cache[string(s.key)] = c
	return c
}

// Shares implements Method.
func (s *SampledShapley) Shares(R []int) map[int]float64 {
	shares, _ := s.SharesCert(R)
	return shares
}

// SharesCert estimates the Shapley shares of R and returns the Hoeffding
// certificate of the estimate. The permutation stream is derived from
// the instance seed and the canonical members of R, so equal queries
// reproduce equal bytes regardless of call order.
func (s *SampledShapley) SharesCert(R []int) (map[int]float64, ApproxCert) {
	k := len(R)
	if k == 0 {
		return map[int]float64{}, ApproxCert{Samples: s.samples, Delta: s.delta}
	}
	members := append([]int(nil), R...)
	sort.Ints(members)

	// Δmax from the singleton costs (these warm the memo for the
	// permutation walks too).
	var dmax float64
	single := make([]int, 1)
	for _, a := range members {
		single[0] = a
		if c := s.costOfSorted(single); c > dmax {
			dmax = c
		}
	}

	rng := rand.New(rand.NewSource(s.permSeed(members)))
	sums := make([]float64, k)
	perm := make([]int, k)
	prefix := make([]int, 0, k)
	idx := make(map[int]int, k)
	for i, a := range members {
		idx[a] = i
	}
	for t := 0; t < s.samples; t++ {
		copy(perm, members)
		rng.Shuffle(k, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		prefix = prefix[:0]
		prev := 0.0
		for _, a := range perm {
			// Insert a into the sorted prefix.
			at := sort.SearchInts(prefix, a)
			prefix = append(prefix, 0)
			copy(prefix[at+1:], prefix[at:])
			prefix[at] = a
			c := s.costOfSorted(prefix)
			sums[idx[a]] += c - prev
			prev = c
		}
	}
	shares := make(map[int]float64, k)
	for i, a := range members {
		shares[a] = sums[i] / float64(s.samples)
	}
	eps := dmax * math.Sqrt(math.Log(2*float64(k)/s.delta)/(2*float64(s.samples)))
	return shares, ApproxCert{Samples: s.samples, Epsilon: eps, Delta: s.delta, DeltaMax: dmax}
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
