package serve

import (
	"strconv"
	"strings"

	"wmcs/internal/mechreg"
	"wmcs/internal/query"
)

// This file is the cache carry-forward pass of PATCH /v1/networks
// (DESIGN.md §12.4): after an update retires version v for v', entries
// cached under v's prefix are normally unreachable garbage — but when
// the update's delta *proves* a cached outcome identical on the new
// network, the entry can be re-keyed under v' instead of recomputed.
// Two proofs are accepted:
//
//   - the Unchanged fast path: the op sequence canceled out bitwise
//     (wireless.StateEqual), the outgoing evaluator itself was
//     republished, and every entry — the sampled (approx) tier
//     included — is valid verbatim, because any query under v' runs
//     on the same evaluator object;
//   - a per-mechanism CarrySafe predicate from the descriptor
//     registry: exact-tier entries only, with the canonical support
//     set parsed back out of the cache key. The registry's default is
//     nil (never carry) — a predicate exists only where DESIGN.md
//     states the proof.
//
// The pass is bounded (carryLimit hottest entries, MRU-first per
// shard) and purely an optimization: a skipped entry is recomputed on
// the next miss with identical bytes, so correctness never depends on
// the scan completing or on the predicate accepting.

// carryLimit bounds how many retired-prefix keys one update inspects.
// Carrying is O(keys scanned), runs inside the PATCH handler, and the
// hottest entries are found first — past a few hundred the marginal
// entry is cold enough that recomputing it on demand is fine.
const carryLimit = 512

// carryForward re-keys still-valid cache entries from the retired
// version's prefix to the new one and returns how many it carried.
// Call before DeletePrefix(old prefix): the pass reads the old keys.
func (s *Server) carryForward(entry *NetworkEntry, res query.UpdateResult) int {
	oldPrefix := entry.prefixFor(res.OldVersion)
	newPrefix := entry.prefixFor(res.NewVersion)
	carried := 0
	for _, e := range s.cache.entriesWithPrefix(oldPrefix, carryLimit) {
		canon := e.key[len(oldPrefix):]
		if !res.Unchanged && !carrySafe(canon, res) {
			continue
		}
		newKey := newPrefix + canon
		s.cache.Put(newKey, e.val)
		// Same stranded-entry discipline as Server.compute: if
		// the entry was evicted — or updated *again* — while we carried,
		// our Put may have landed after that successor's purge of our
		// prefix, stranding an unreachable entry in LRU capacity.
		// Deleting our own key closes the race; if we instead observed
		// our own version, the later purge is guaranteed to sweep it.
		if entry.evicted.Load() || entry.Ev.Version() != res.NewVersion {
			s.cache.Delete(newKey)
			continue
		}
		carried++
	}
	return carried
}

// carrySafe decides one exact-tier entry under the per-mechanism
// predicate. canon is the network-agnostic half of the cache key:
// mech ␟ i=hexfloat ␟ ... [␟ approx=...].
func carrySafe(canon string, res query.UpdateResult) bool {
	if strings.Contains(canon, "\x1fapprox=") {
		// The sampled tier is never carried by predicate: its
		// permutations range over the full agent set and observe touched
		// distances directly (DESIGN.md §12.3).
		return false
	}
	name, rest, _ := strings.Cut(canon, "\x1f")
	d, err := mechreg.ByName(name)
	if err != nil || d.CarrySafe == nil {
		return false
	}
	support, ok := supportFromKey(rest)
	if !ok {
		return false
	}
	return d.CarrySafe(res.OldNet, res.NewNet, res.Delta, support)
}

// supportFromKey parses the canonical support set — the station
// indices with nonzero canonical utility — back out of the key's
// profile segments ("i=hexfloat", 0x1f-separated; empty rest means an
// all-zero profile). ok is false on anything malformed: carrying on a
// misparsed support would hand the predicate the wrong question.
func supportFromKey(rest string) ([]int, bool) {
	if rest == "" {
		return nil, true
	}
	segs := strings.Split(rest, "\x1f")
	support := make([]int, 0, len(segs))
	for _, seg := range segs {
		idx, _, found := strings.Cut(seg, "=")
		if !found {
			return nil, false
		}
		i, err := strconv.Atoi(idx)
		if err != nil || i < 0 {
			return nil, false
		}
		support = append(support, i)
	}
	return support, true
}
