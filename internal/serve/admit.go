package serve

import (
	"errors"
	"fmt"
	"time"

	"wmcs/internal/obs"
	"wmcs/internal/query"
)

// errInternal marks server-side faults — recovered evaluation panics,
// unencodable outcomes — as distinct from request errors, so the HTTP
// layer can answer 500 instead of blaming the client with a 4xx.
var errInternal = errors.New("internal error")

// errShuttingDown is what an evaluation that had not started when Close
// ran returns; the HTTP layer answers it with 503.
var errShuttingDown = fmt.Errorf("server shutting down")

// compute evaluates one canonical query for its flight's leader, on the
// leader's own goroutine, once it holds one of the server's compute
// slots — the registry's evaluation width bounds how many evaluations
// run at once, on every endpoint. The slot is held through the
// evaluation, the encode and the cache fill. Coalesced followers never
// get here, and PATCH rebuilds take no slot.
//
// ev and ver are the consistent {evaluator, version} pair the request
// was admitted with (one atomic Current() load), and key carries that
// registration's generation-and-version prefix: an entry evicted or
// updated mid-flight still answers, correctly for the state the client
// was admitted against, and its bytes land under a key no future
// request can form. tr (nil ok) is the caller's trace; this runs on the
// goroutine that owns it.
func (s *Server) compute(entry *NetworkEntry, ev *query.Evaluator, ver uint64, c CanonRequest, key string, tr *obs.Trace) (body []byte, err error) {
	waitStart := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-s.quit:
		return nil, errShuttingDown
	}
	defer func() { <-s.slots }()
	// A select over a free slot and a closed quit picks at random, so
	// re-check: no evaluation starts after Close.
	select {
	case <-s.quit:
		return nil, errShuttingDown
	default:
	}
	tr.RecordSince(obs.StageQueueWait, waitStart)
	// Evaluation and encoding run on the caller's goroutine, but a panic
	// there is still a server fault the client should see as a 500, not a
	// dropped connection.
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("evaluating %s: %w: %v", entry.Name, errInternal, r)
		}
	}()
	s.stats.Evaluations.Add(1)
	evalStart := time.Now()
	resp := ev.EvaluateOne(query.Request{Mech: c.Mech, Profile: c.Profile, Approx: c.Approx})
	evalDur := time.Since(evalStart)
	tr.Record(obs.StageEvaluate, evalStart, evalDur)
	tr.Record(obs.StageCompute, evalStart, evalDur)
	if resp.Err != nil {
		return nil, resp.Err
	}
	encStart := time.Now()
	body, err = EncodeOutcomeCert(entry.Name, c.Mech, resp.Outcome, resp.Cert)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errInternal, err)
	}
	s.cache.Put(key, body)
	if entry.evicted.Load() || entry.Ev.Version() != ver {
		// The entry left the registry — or its network was updated past
		// the version we were admitted with — while we were evaluating.
		// Our Put may have landed after the handler's DeletePrefix for
		// our retired prefix, which would strand an entry no future
		// request can reach in LRU capacity forever. Deleting our own key
		// closes the race: if we instead observed evicted == false and our
		// own version, the flip happened after our Put, and the handler's
		// DeletePrefix — which runs after the flip — is guaranteed to
		// sweep it.
		s.cache.Delete(key)
	}
	tr.RecordSince(obs.StageEncode, encStart)
	return body, nil
}
