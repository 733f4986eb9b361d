// Package serve is the multi-network query service over the query
// engine (DESIGN.md §8): a registry of named networks each backed by one
// shared query.Evaluator, a canonicalizing request codec feeding a
// sharded LRU result cache, singleflight coalescing of concurrent
// identical queries, a compute-slot bound on concurrent evaluations of
// distinct ones, and a stdlib net/http JSON surface (/v1/networks,
// /v1/evaluate, /v1/batch, /healthz, /statsz).
//
// The load-bearing invariant is byte-identity: a query's HTTP response
// body is the same byte string whether it was computed cold, replayed
// from the cache, coalesced onto another caller's computation, or
// evaluated inside a batch — because the cache stores the encoded
// response itself and the codec canonicalizes every request before the
// key is formed.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
)

// Quantum is the utility quantization grid: every reported utility is
// rounded to the nearest multiple before keying and before evaluation,
// so two requests that differ below the grid are the same query — and,
// crucially, a cache hit is exactly a cold evaluation of the same
// canonical profile, never of a nearby one.
const Quantum = 1e-6

// EvalRequest is the wire form of one /v1/evaluate query (and of each
// element of /v1/batch).
type EvalRequest struct {
	// Network is the registry name of the network to query.
	Network string `json:"network"`
	// Mech is a mechanism registry name (mechreg.Names).
	Mech string `json:"mech"`
	// R is the candidate receiver set; empty/absent means every station
	// may be served. Order and duplicates are irrelevant: the codec
	// sorts, dedups, and folds R into the profile mask.
	R []int `json:"receivers,omitempty"`
	// Profile holds the reported utilities, indexed by station id; its
	// length must equal the network's station count.
	Profile []float64 `json:"profile"`
	// Approx selects the mechanism's sampled Shapley tier; absent means
	// exact. The canonicalized spec participates in the cache key, so an
	// exact result and a sampled one — or two sampled ones with
	// different budgets or seeds — can never share an entry.
	Approx *ApproxWire `json:"approx,omitempty"`
}

// ApproxWire is the wire form of an approximate-tier selection.
type ApproxWire struct {
	// Samples is the permutation budget, >= 1.
	Samples int `json:"samples"`
	// Delta is the certificate failure probability, in (0, 1).
	Delta float64 `json:"delta"`
	// Seed pins the permutation stream (optional; 0 is a valid seed).
	Seed int64 `json:"seed,omitempty"`
}

// ErrBadApprox marks a malformed approximate-tier spec: the request
// shape was readable but the parameters violate the contract (samples
// < 1, delta outside (0,1), non-finite delta). The serving layer maps it
// to a structured 422 — a client defect in a well-formed request, not a
// decode failure (400) and certainly not a server fault (500).
var ErrBadApprox = errors.New("invalid approx spec")

// CanonRequest is a request in canonical form: the profile is masked to
// R (and zeroed at the source), quantized to the grid, and Key
// identifies the query *within its network* (mechanism + sparse
// profile). Two wire requests with equal semantics canonicalize to
// equal keys; the server prefixes Key with the target registration's
// name and generation to form the cache key, so entries can never
// outlive the registration they were computed against.
type CanonRequest struct {
	//lint:cachekey enters the cache key as the serving layer's name+generation.version prefix (entry.prefixFor), never via buildKey
	Network string
	Mech    string
	Profile mech.Profile
	// Approx is the validated sampled-tier spec, nil for exact requests.
	// It is part of the canonical identity: Key carries a suffix derived
	// from it, so the exact and sampled tiers (and distinct specs) occupy
	// disjoint key spaces.
	Approx *mech.ApproxSpec
	//lint:cachekey Key is buildKey's output, not an input the key must cover
	Key string
}

// mechNames is the set form of the descriptor registry's names for O(1)
// validation. (Whether the *target network's* domain admits the
// mechanism is the serving layer's per-entry check, mapped to 422; an
// unknown name is a 400 here.)
var mechNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, n := range mechreg.Names() {
		m[n] = true
	}
	return m
}()

// Canonicalize validates a wire request against a network of n stations
// with the given source and produces its canonical form. The rules (the
// cache-key contract, DESIGN.md §8):
//
//  1. the mechanism name must be a registry name;
//  2. len(Profile) must equal n, every entry finite, >= 0, and small
//     enough that quantization stays finite (v/Quantum overflows
//     float64 near 1.8e302 — such a utility has no grid point, so the
//     request is rejected rather than canonicalized to +Inf);
//  3. R entries must lie in [0, n); R is sorted and deduplicated, then
//     folded into the profile: utilities outside R (and at the source)
//     become 0 — mechanisms only ever see the masked profile, so (R, u)
//     and (nil, mask(u)) are the same query and share a cache entry;
//  4. every remaining utility is rounded to the nearest multiple of
//     Quantum (ties away from zero, -0 normalized to +0);
//  5. the key encodes the mechanism and the sparse nonzero entries of
//     the canonical profile (reporting 0 is identical to not requesting
//     service, so zeros never reach the key); the network's identity
//     enters at the serving layer as a name+generation prefix;
//  6. an approx spec, if present, must validate (samples >= 1, delta in
//     (0,1) and finite — anything else wraps ErrBadApprox), and is
//     appended to the key as a tier suffix: exact and sampled requests,
//     and sampled requests with different budgets, deltas, or seeds, can
//     never share a cache entry.
func Canonicalize(req EvalRequest, n, source int) (CanonRequest, error) {
	if !mechNames[req.Mech] {
		return CanonRequest{}, fmt.Errorf("%w %q (have %s)", mechreg.ErrUnknownMechanism, req.Mech, strings.Join(mechreg.Names(), ", "))
	}
	if len(req.Profile) != n {
		return CanonRequest{}, fmt.Errorf("profile has %d entries, network has %d stations", len(req.Profile), n)
	}
	// Validate the wire profile in full — entries outside R included —
	// so a malformed request is 4xx'd rather than silently masked away.
	for i, v := range req.Profile {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return CanonRequest{}, fmt.Errorf("utility %d is not finite", i)
		}
		if v < 0 {
			return CanonRequest{}, fmt.Errorf("utility %d is negative (%g)", i, v)
		}
		if math.IsInf(quantize(v), 0) {
			return CanonRequest{}, fmt.Errorf("utility %d (%g) overflows the quantization grid", i, v)
		}
	}
	u := make(mech.Profile, n)
	if len(req.R) == 0 {
		// Absent and explicitly-empty R read the same on the wire:
		// every station may be served ("nobody" is expressed by an
		// all-zero profile, identically to excluding everyone).
		copy(u, req.Profile)
	} else {
		for _, r := range req.R {
			if r < 0 || r >= n {
				return CanonRequest{}, fmt.Errorf("receiver %d out of range [0, %d)", r, n)
			}
			u[r] = req.Profile[r]
		}
	}
	if source >= 0 && source < n {
		u[source] = 0
	}
	for i, v := range u {
		u[i] = quantize(v)
	}
	c := CanonRequest{Network: req.Network, Mech: req.Mech, Profile: u}
	if req.Approx != nil {
		spec := mech.ApproxSpec{Samples: req.Approx.Samples, Delta: req.Approx.Delta, Seed: req.Approx.Seed}
		if err := spec.Validate(); err != nil {
			return CanonRequest{}, fmt.Errorf("%w: %v", ErrBadApprox, err)
		}
		c.Approx = &spec
	}
	c.Key = buildKey(c)
	return c, nil
}

// quantize rounds to the Quantum grid, normalizing -0 so the key byte
// encoding of "zero" is unique.
func quantize(v float64) float64 {
	q := math.Round(v/Quantum) * Quantum
	if q == 0 {
		return 0
	}
	return q
}

// buildKey renders the canonical key. Nonzero utilities are encoded as
// exact hex floats ('x' formatting round-trips float64 bit patterns),
// so distinct grid points never collide; 0x1f separators cannot appear
// in any component.
func buildKey(c CanonRequest) string {
	var b strings.Builder
	b.Grow(len(c.Mech) + 16*len(c.Profile)/2)
	b.WriteString(c.Mech)
	for i, v := range c.Profile {
		if v == 0 {
			continue
		}
		b.WriteByte(0x1f)
		b.WriteString(strconv.Itoa(i))
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	if c.Approx != nil {
		// The tier suffix: no profile segment can collide with it — their
		// label left of '=' is always a decimal station index, never the
		// word "approx" — so an exact key is never a prefix-plus-suffix of
		// a sampled one and vice versa. Delta is rendered as an exact hex
		// float like the utilities, so distinct specs get distinct keys.
		b.WriteByte(0x1f)
		b.WriteString("approx=")
		b.WriteString(strconv.Itoa(c.Approx.Samples))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(c.Approx.Delta, 'x', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(c.Approx.Seed, 10))
	}
	return b.String()
}

// networkKeyPrefix is the prefix every key of a network's entries
// shares; eviction purges by it.
func networkKeyPrefix(network string) string { return network + "\x1f" }

// EvalResponse is the canonical wire form of one outcome. Shares are a
// sorted array (not a map) so encoding/json marshals deterministically;
// Receivers is sorted by the mechanism contract.
type EvalResponse struct {
	Network   string       `json:"network"`
	Mech      string       `json:"mech"`
	Receivers []int        `json:"receivers"`
	Shares    []AgentShare `json:"shares"`
	Cost      float64      `json:"cost"`
	// Approx carries the sampled tier's certificate; absent on exact
	// results. It is part of the cached response bytes, so a replayed
	// sampled result reports the certificate of its cold computation.
	Approx *ApproxCertWire `json:"approx,omitempty"`
}

// ApproxCertWire is the wire form of a sampled tier's (ε, δ)
// certificate: with probability at least 1-delta, every reported share
// is within epsilon of its exact Shapley value.
type ApproxCertWire struct {
	Samples  int     `json:"samples"`
	Epsilon  float64 `json:"epsilon"`
	Delta    float64 `json:"delta"`
	DeltaMax float64 `json:"delta_max"`
}

// AgentShare is one receiver's cost share.
type AgentShare struct {
	Agent int     `json:"agent"`
	Share float64 `json:"share"`
}

// EncodeOutcome renders an outcome as canonical response bytes: shares
// sorted by agent id, floats in Go's shortest round-trip decimal form.
// These exact bytes are what the cache stores and replays. An outcome
// json.Marshal cannot represent (a NaN or Inf share out of a mechanism)
// is an error, not a panic, so the caller can answer it as a server
// fault (500) without relying on a recover.
func EncodeOutcome(network, mechName string, o mech.Outcome) ([]byte, error) {
	return EncodeOutcomeCert(network, mechName, o, nil)
}

// EncodeOutcomeCert is EncodeOutcome for the sampled tier: a non-nil
// cert is embedded in the response bytes (and hence in the cache). Exact
// results pass nil and encode identically to EncodeOutcome.
func EncodeOutcomeCert(network, mechName string, o mech.Outcome, cert *mech.ApproxCert) ([]byte, error) {
	resp := EvalResponse{
		Network:   network,
		Mech:      mechName,
		Receivers: o.Receivers,
		Shares:    make([]AgentShare, 0, len(o.Shares)),
		Cost:      o.Cost,
	}
	if resp.Receivers == nil {
		resp.Receivers = []int{}
	}
	if cert != nil {
		resp.Approx = &ApproxCertWire{
			Samples:  cert.Samples,
			Epsilon:  cert.Epsilon,
			Delta:    cert.Delta,
			DeltaMax: cert.DeltaMax,
		}
	}
	for a, s := range o.Shares {
		resp.Shares = append(resp.Shares, AgentShare{Agent: a, Share: s})
	}
	sort.Slice(resp.Shares, func(i, j int) bool { return resp.Shares[i].Agent < resp.Shares[j].Agent })
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encoding %s outcome: %w", mechName, err)
	}
	return b, nil
}
