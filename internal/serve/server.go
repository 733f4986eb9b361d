package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"wmcs/internal/detorder"
	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/obs"
	"wmcs/internal/query"
)

// Options tune a Server; zero values select the defaults.
type Options struct {
	// CacheCapacity is the result cache size in entries. 0 means unset
	// and selects DefaultCacheCapacity (so the zero Options value keeps
	// its sensible-server meaning); negative disables caching. Callers
	// that need literal "no cache" semantics from a user-supplied 0
	// (wmcsd's -cache flag) translate it to a negative before building
	// Options.
	CacheCapacity int
	// Logger receives one structured request-summary record per non-2xx
	// or slow request (DESIGN.md §13.4). nil disables request logging —
	// tests and in-process embedders stay silent.
	Logger *slog.Logger
	// SlowRequest is the wall-time threshold at or above which an
	// otherwise healthy request is logged, counted in SlowRequests, and
	// worth a look in /debugz/slow. 0 selects DefaultSlowRequest;
	// negative disables slow classification.
	SlowRequest time.Duration
	// SlowTraces is the capacity of the slowest-trace ring behind
	// /debugz/slow. 0 selects DefaultSlowTraces; negative disables
	// retention (the endpoint then always answers an empty list).
	SlowTraces int
}

// Server is the HTTP face of the query service. Create with NewServer,
// serve via any http.Server (it implements http.Handler), and Close it
// when done so that evaluations not yet started fail fast. A cache miss
// evaluates on its own request goroutine once it holds one of the
// registry's evaluation-width compute slots (see compute).
//
// Endpoints:
//
//	GET    /healthz              liveness ("ok")
//	GET    /statsz               one reading (readStats) as JSON: counters + latency quantiles
//	GET    /metricsz             the same reading as Prometheus text-format exposition
//	GET    /debugz/slow          the slowest request traces since boot
//	GET    /v1/mechanisms        the mechanism registry: names, domains, guarantees
//	GET    /v1/networks          hosted networks + the mechanisms each supports
//	POST   /v1/networks          register a scenario spec (instances.Spec JSON)
//	PATCH  /v1/networks/{name}   update a network in place (instances.Update JSON)
//	DELETE /v1/networks/{name}   evict a network (and its cache entries)
//	POST   /v1/evaluate          one EvalRequest -> EvalResponse
//	POST   /v1/batch             []EvalRequest  -> []EvalResponse-or-error
type Server struct {
	reg    *Registry
	cache  *Cache
	stats  *Stats
	flight flightGroup
	mux    *http.ServeMux
	tracer *obs.Tracer
	logger *slog.Logger
	slow   time.Duration // resolved SlowRequest; <= 0 disables
	boot   time.Time     // process-start anchor for wmcs_uptime_seconds

	// slots bounds concurrent evaluations to the registry's evaluation
	// width; quit closes on Close.
	slots     chan struct{}
	quit      chan struct{}
	closeOnce sync.Once
}

// NewServer builds a server over a registry. The registry may be shared
// (e.g. populated concurrently by an operator goroutine); the server
// only reads it through its own synchronized API.
func NewServer(reg *Registry, opts Options) *Server {
	if opts.CacheCapacity == 0 {
		opts.CacheCapacity = DefaultCacheCapacity
	}
	if opts.SlowRequest == 0 {
		opts.SlowRequest = DefaultSlowRequest
	}
	if opts.SlowTraces == 0 {
		opts.SlowTraces = DefaultSlowTraces
	}
	s := &Server{
		reg:    reg,
		cache:  NewCache(opts.CacheCapacity, 16),
		stats:  NewStats(),
		tracer: obs.NewTracer(opts.SlowTraces),
		logger: opts.Logger,
		slow:   opts.SlowRequest,
		boot:   time.Now(),
		// The registry's width sizes the compute slots; it also builds
		// every hosted evaluator, so one setting governs both.
		slots: make(chan struct{}, reg.parallel()),
		quit:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /debugz/slow", s.handleSlowTraces)
	mux.HandleFunc("GET /v1/mechanisms", s.handleListMechanisms)
	mux.HandleFunc("GET /v1/networks", s.handleListNetworks)
	mux.HandleFunc("POST /v1/networks", s.handleRegisterNetwork)
	mux.HandleFunc("PATCH /v1/networks/{name}", s.handleUpdateNetwork)
	mux.HandleFunc("DELETE /v1/networks/{name}", s.handleEvictNetwork)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close makes every cache miss whose evaluation has not started fail
// with a clean "server shutting down" error (503); evaluations already
// running finish. Idempotent; call after http.Server.Shutdown.
func (s *Server) Close() { s.closeOnce.Do(func() { close(s.quit) }) }

// Cache exposes the result cache (counters for tests and callers
// embedding the server in-process).
func (s *Server) Cache() *Cache { return s.cache }

// Stats exposes the admission counters.
func (s *Server) Stats() *Stats { return s.stats }

// EvaluateCanon serves one canonical query through the full admission
// path — cache, singleflight, compute slot — and returns the response
// body bytes plus how they were obtained ("hit", "miss", "coalesced").
// This is the exact path handleEvaluate takes; it is exported within
// the package surface so in-process clients (the workload driver, the
// benchmarks) exercise serving semantics without a socket.
func (s *Server) EvaluateCanon(c CanonRequest) (body []byte, source string, err error) {
	entry, ok := s.reg.Get(c.Network)
	if !ok {
		return nil, "", fmt.Errorf("unknown network %q", c.Network)
	}
	if err := entry.CheckMech(c.Mech); err != nil {
		return nil, "", err
	}
	body, source, _, err = s.evaluateEntry(entry, c, nil)
	return body, source, err
}

// evaluateEntry is EvaluateCanon with the registration already
// resolved. One atomic load pins the admission to a consistent
// {evaluator, version} pair; the cache key (and the singleflight key)
// carry the entry's generation-and-version prefix, and the flight
// leader evaluates on that exact evaluator — so concurrent
// evict/re-register cycles *and* in-place updates can neither serve nor
// poison another network state's results, and the returned version
// always describes the state that produced the bytes.
func (s *Server) evaluateEntry(entry *NetworkEntry, c CanonRequest, tr *obs.Trace) (body []byte, source string, ver uint64, err error) {
	cur := entry.Ev.Current()
	key := entry.prefixFor(cur.Version) + c.Key
	lookupStart := time.Now()
	body, ok := s.cache.Get(key)
	tr.RecordSince(obs.StageCacheLookup, lookupStart)
	if ok {
		return body, "hit", cur.Version, nil
	}
	// The flight leader's closure runs on this goroutine, so handing tr
	// down is race-free; a follower's closure never runs, so its trace
	// sees the whole wait as one coalesce span instead.
	flightStart := time.Now()
	body, err, shared := s.flight.Do(key, func() ([]byte, error) {
		return s.compute(entry, cur.Ev, cur.Version, c, key, tr)
	})
	if err != nil {
		return nil, "", cur.Version, err
	}
	if shared {
		tr.RecordSince(obs.StageCoalesce, flightStart)
		s.stats.Coalesced.Add(1)
		return body, "coalesced", cur.Version, nil
	}
	return body, "miss", cur.Version, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statszPayload is one reading of every figure the server exposes,
// taken by readStats. /statsz renders its exported fields as JSON;
// /metricsz renders all of it, including the unexported figures only
// it shows, as Prometheus text.
type statszPayload struct {
	Networks       int    `json:"networks"`
	Queries        uint64 `json:"queries"`
	Coalesced      uint64 `json:"coalesced"`
	Errors         uint64 `json:"errors"`
	InFlight       int64  `json:"in_flight"`
	Batches        uint64 `json:"batches"`
	BatchedQueries uint64 `json:"batched_queries"`
	// ParallelEval is the evaluation width (Registry.SetParallel,
	// GOMAXPROCS by default): the compute-slot count.
	ParallelEval int `json:"parallel_eval"`
	// Updates counts applied network deltas, UpdateOps the mutation ops
	// they carried; RebuildUS summarizes the evaluator rebuild+warm
	// latency those swaps paid. Generations maps every hosted network
	// to its current "regGen.version" cache generation — the observable
	// proof that an update bumped the generation in place instead of
	// forcing an evict/re-register round-trip (the regGen half is
	// stable across updates).
	Updates   uint64         `json:"updates"`
	UpdateOps uint64         `json:"update_ops"`
	RebuildUS LatencySummary `json:"rebuild_us"`
	// RebuildIncrementalUS/RebuildFullUS split RebuildUS by rebuild
	// path; their counts sum to RebuildUS.Count. CarriedEntries and
	// DeltaRebuiltMechs are the cumulative carry-forward and
	// delta-rebuild counters (see carry.go and query.UpdateResult).
	RebuildIncrementalUS LatencySummary            `json:"rebuild_incremental_us"`
	RebuildFullUS        LatencySummary            `json:"rebuild_full_us"`
	CarriedEntries       uint64                    `json:"carried_entries"`
	DeltaRebuiltMechs    uint64                    `json:"delta_rebuilt_mechs"`
	Generations          map[string]string         `json:"generations"`
	Cache                CacheStats                `json:"cache"`
	LatencyUS            map[string]LatencySummary `json:"latency_us"`
	Runtime              runtimeStats              `json:"runtime"`

	slow uint64
	nets []netRow // ascending name order
	// mechs (observed mechanisms only, ascending name order), stages
	// (every stage, obs.Stage order) and rebuilds (incremental, full)
	// are the histogram snapshots the summaries above digest.
	mechs, stages, rebuilds []histSnap
	uptime                  time.Duration
}

// runtimeStats is the process-health block: enough to spot a goroutine
// leak or GC pressure from a dashboard without attaching pprof (wmcsd
// -pprof exists for the deep dive).
type runtimeStats struct {
	Goroutines     int    `json:"goroutines"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	HeapInuse      uint64 `json:"heap_inuse"`
}

// netRow is one hosted network's figures: the lifecycle state serving
// its bytes and its resident share of the result cache.
type netRow struct {
	name                     string
	gen, version             uint64
	cacheEntries, cacheBytes int
}

// readStats reads every exposed figure once: the Stats counters, the
// cache counters, one row per hosted network, the three histogram
// families as snapshots and the runtime stats. /statsz's latency
// digests summarize the same snapshots /metricsz exposes.
func (s *Server) readStats() statszPayload {
	st := s.stats
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Every evaluation is a batch of one. Both batch keys stay, reading
	// the one counter, for the clients that decode them.
	evaluations := st.Evaluations.Load()
	p := statszPayload{
		Queries:           st.Queries.Load(),
		Coalesced:         st.Coalesced.Load(),
		Errors:            st.Errors.Load(),
		InFlight:          st.InFlight.Load(),
		Batches:           evaluations,
		BatchedQueries:    evaluations,
		ParallelEval:      cap(s.slots),
		Updates:           st.Updates.Load(),
		UpdateOps:         st.UpdateOps.Load(),
		CarriedEntries:    st.CarriedEntries.Load(),
		DeltaRebuiltMechs: st.DeltaRebuiltMechs.Load(),
		Generations:       make(map[string]string),
		Cache:             s.cache.Stats(),
		LatencyUS:         make(map[string]LatencySummary),
		Runtime: runtimeStats{
			Goroutines:     runtime.NumGoroutine(),
			GCPauseTotalNS: ms.PauseTotalNs,
			HeapInuse:      ms.HeapInuse,
		},
		slow:   st.SlowRequests.Load(),
		uptime: time.Since(s.boot),
	}
	entries := s.reg.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	p.Networks = len(entries)
	for _, e := range entries {
		row := netRow{name: e.Name, gen: e.gen, version: e.Ev.Version()}
		row.cacheEntries, row.cacheBytes = s.cache.PrefixStats(networkKeyPrefix(e.Name))
		p.nets = append(p.nets, row)
		p.Generations[e.Name] = fmt.Sprintf("%d.%d", row.gen, row.version)
	}
	for name, h := range detorder.Sorted(st.known) {
		if hs := h.snapshot(name); hs.count > 0 {
			p.mechs = append(p.mechs, hs)
			p.LatencyUS[name] = hs.summary()
		}
	}
	for i := range st.stages {
		p.stages = append(p.stages, st.stages[i].snapshot(obs.Stage(i).String()))
	}
	inc, full := st.rebuildInc.snapshot("incremental"), st.rebuildFull.snapshot("full")
	p.rebuilds = []histSnap{inc, full}
	p.RebuildIncrementalUS, p.RebuildFullUS = inc.summary(), full.summary()
	p.RebuildUS = inc.plus(full).summary()
	return p
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.readStats())
}

// networkInfo is one row of GET /v1/networks. Mechanisms is the
// per-network supported set: exactly the registry names whose declared
// domain admits this network, i.e. the names /v1/evaluate will not
// reject with a 422 — the listing and evaluate-time reality can never
// disagree because both read the same registry snapshot.
type networkInfo struct {
	Name      string `json:"name"`
	Stations  int    `json:"stations"`
	Source    int    `json:"source"`
	Euclidean bool   `json:"euclidean"`
	// Version is the network's lifecycle version: 0 as registered,
	// bumped by every mutation op a PATCH applied. Spec (when present)
	// describes the network *as registered* — at version > 0 the served
	// costs have drifted from what the spec alone would build.
	Version    uint64          `json:"version"`
	Mechanisms []string        `json:"mechanisms"`
	Spec       *instances.Spec `json:"spec,omitempty"`
}

func (s *Server) handleListNetworks(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	out := struct {
		Networks []networkInfo `json:"networks"`
		// Mechanisms is the full registry name list; whether a hosted
		// network supports a given name is per-network information.
		Mechanisms []string `json:"mechanisms"`
	}{Networks: make([]networkInfo, 0, len(entries)), Mechanisms: mechreg.Names()}
	for _, e := range entries {
		info := networkInfo{
			Name:       e.Name,
			Stations:   e.Net.N(),
			Source:     e.Net.Source(),
			Euclidean:  e.Net.IsEuclidean(),
			Version:    e.Ev.Version(),
			Mechanisms: e.Supported,
		}
		if e.Spec.Scenario != "" {
			sp := e.Spec
			info.Spec = &sp
		}
		out.Networks = append(out.Networks, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// mechInfo is one row of GET /v1/mechanisms: the wire form of a
// registry descriptor — name, family, domain, paper anchor and the
// declared guarantees, rendered so clients (and the CI smoke diff
// against the CLI's listing) need no knowledge of internal types.
type mechInfo struct {
	Name     string `json:"name"`
	Family   string `json:"family"`
	Domain   string `json:"domain"`
	PaperRef string `json:"paper_ref"`
	Desc     string `json:"desc"`
	// Approx advertises a sampled Shapley tier: requests may carry an
	// "approx" object and receive an (ε, δ) certificate.
	Approx bool `json:"approx"`

	BudgetBalance     string `json:"budget_balance"` // "none" | "solution" | "optimum"
	Beta              string `json:"beta,omitempty"` // declared factor, human form
	Strategyproofness string `json:"strategyproofness"`
	SPGap             string `json:"sp_gap,omitempty"`
	NPT               bool   `json:"npt"`
	VP                bool   `json:"vp"`
	CS                bool   `json:"cs"`
	Efficient         bool   `json:"efficient"`
}

func (s *Server) handleListMechanisms(w http.ResponseWriter, r *http.Request) {
	all := mechreg.All()
	out := struct {
		Mechanisms []mechInfo `json:"mechanisms"`
	}{Mechanisms: make([]mechInfo, 0, len(all))}
	for _, d := range all {
		g := d.Guarantees
		out.Mechanisms = append(out.Mechanisms, mechInfo{
			Name:              d.Name,
			Family:            d.Family,
			Domain:            d.Domain,
			PaperRef:          d.PaperRef,
			Desc:              d.Desc,
			Approx:            d.Approx,
			BudgetBalance:     g.BB.String(),
			Beta:              g.BetaLabel,
			Strategyproofness: g.Strategyproofness.String(),
			SPGap:             g.SPGap,
			NPT:               g.NPT,
			VP:                g.VP,
			CS:                g.CS,
			Efficient:         g.Efficient,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRegisterNetwork(w http.ResponseWriter, r *http.Request) {
	var sp instances.Spec
	if code, err := decodeJSON(w, r, &sp); err != nil {
		writeErr(w, code, err.Error())
		return
	}
	if err := s.reg.RegisterSpec(sp); err != nil {
		code := http.StatusBadRequest // invalid spec
		if errors.Is(err, ErrDuplicateNetwork) {
			code = http.StatusConflict
		}
		writeErr(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"registered": sp.Name})
}

// updateResponse is the PATCH /v1/networks/{name} success body.
type updateResponse struct {
	Network string `json:"network"`
	// OldVersion/Version bracket the delta; Ops is how many mutation
	// ops it carried (Version - OldVersion).
	OldVersion uint64 `json:"old_version"`
	Version    uint64 `json:"version"`
	Ops        int    `json:"ops"`
	// RebuildUS is the evaluator rebuild+warm wall clock the swap paid.
	RebuildUS float64 `json:"rebuild_us"`
	// Incremental reports that the swap reused substrate via the delta
	// path (the op sequence canceled out bitwise, or the MEMT→NWST
	// reduction was rebuilt incrementally) instead of a full rebuild.
	Incremental bool `json:"incremental"`
	// CarriedEntries counts cache entries re-keyed from the retired
	// version to this one because the delta proved their bytes
	// unchanged (see carry.go).
	CarriedEntries int `json:"carried_entries"`
	// CacheEntriesDropped counts the retired version's purged cache
	// entries — space reclamation only; correctness never depends on
	// the purge (retired keys are unreachable by construction).
	CacheEntriesDropped int `json:"cache_entries_dropped"`
}

// handleUpdateNetwork applies an in-place delta (cost changes, station
// moves, station churn) to a hosted network: the versioned evaluator
// mutates a private copy, rebuilds, and atomically swaps, so the
// network's cache generation bumps in O(1) without an evict →
// re-register round-trip. In-flight queries drain against the old
// state; queries admitted after the swap see only the new one.
func (s *Server) handleUpdateNetwork(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer.Start("update")
	defer s.closeTrace(tr, true)
	w.Header().Set("X-Wmcs-Trace", tr.ID)
	name := r.PathValue("name")
	tr.Network = name
	entry, ok := s.reg.Get(name)
	if !ok {
		tr.Status = http.StatusNotFound
		tr.Err = fmt.Sprintf("unknown network %q", name)
		writeErr(w, http.StatusNotFound, tr.Err)
		return
	}
	var up instances.Update
	if code, err := decodeJSON(w, r, &up); err != nil {
		tr.RecordSince(obs.StageAdmission, tr.Begin)
		tr.Status, tr.Err = code, err.Error()
		writeErr(w, code, err.Error())
		return
	}
	if up.Empty() {
		tr.RecordSince(obs.StageAdmission, tr.Begin)
		tr.Status, tr.Err = http.StatusBadRequest, "empty update: no set_costs, move, disable or enable ops"
		writeErr(w, http.StatusBadRequest, tr.Err)
		return
	}
	tr.RecordSince(obs.StageAdmission, tr.Begin)
	rebuildStart := time.Now()
	res, err := entry.Ev.Update(up.Apply)
	tr.RecordSince(obs.StageRebuild, rebuildStart)
	if err != nil {
		// Every op failure is a request defect (bad index, bad value, op
		// outside the network's class); the update applied nothing.
		tr.Status, tr.Err = http.StatusUnprocessableEntity, err.Error()
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	tr.Version = res.NewVersion
	if res.NewVersion == res.OldVersion {
		// Every op was a true no-op (a same-value SetCost, a same-point
		// MoveStation): no version bump, no swap, and crucially no cache
		// retirement — the current version's entries stay hot. Not
		// counted as an update.
		tr.Status = http.StatusOK
		writeJSON(w, http.StatusOK, updateResponse{
			Network:    name,
			OldVersion: res.OldVersion,
			Version:    res.NewVersion,
		})
		return
	}
	s.stats.Updates.Add(1)
	s.stats.UpdateOps.Add(uint64(res.Delta.Ops))
	s.stats.ObserveRebuild(res.Rebuild, res.Incremental)
	if res.Incremental {
		s.stats.DeltaRebuiltMechs.Add(uint64(res.RebuiltMechs))
	}
	// Carry provably-unchanged hot entries to the new version before the
	// purge below retires their old keys (see carry.go).
	carryStart := time.Now()
	carried := s.carryForward(entry, res)
	tr.RecordSince(obs.StageCarryForward, carryStart)
	s.stats.CarriedEntries.Add(uint64(carried))
	// Reclaim the retired version's cache space. Correctness does not
	// wait for this: new requests already form newVer keys, and a
	// racing old-version Put self-deletes (see compute).
	purgeStart := time.Now()
	dropped := s.cache.DeletePrefix(entry.prefixFor(res.OldVersion))
	tr.RecordSince(obs.StagePurge, purgeStart)
	tr.Status = http.StatusOK
	writeJSON(w, http.StatusOK, updateResponse{
		Network:             name,
		OldVersion:          res.OldVersion,
		Version:             res.NewVersion,
		Ops:                 res.Delta.Ops,
		RebuildUS:           float64(res.Rebuild.Nanoseconds()) / 1e3,
		Incremental:         res.Incremental,
		CarriedEntries:      carried,
		CacheEntriesDropped: dropped,
	})
}

func (s *Server) handleEvictNetwork(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Evict(name) {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown network %q", name))
		return
	}
	dropped := s.cache.DeletePrefix(networkKeyPrefix(name))
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name, "cache_entries_dropped": dropped})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	defer s.stats.TrackInFlight()()
	tr := s.tracer.Start("evaluate")
	defer s.closeTrace(tr, true)
	w.Header().Set("X-Wmcs-Trace", tr.ID)
	traced := wantTrace(r)
	var req EvalRequest
	if code, err := decodeJSON(w, r, &req); err != nil {
		tr.RecordSince(obs.StageAdmission, tr.Begin)
		tr.Status, tr.Err = code, err.Error()
		s.stats.Errors.Add(1)
		writeErr(w, code, err.Error())
		return
	}
	tr.RecordSince(obs.StageAdmission, tr.Begin)
	tr.Network, tr.Mech = req.Network, req.Mech
	body, source, ver, code, err := s.evaluateWire(req, tr)
	tr.Version = ver
	if err != nil {
		tr.Status, tr.Err = code, err.Error()
		s.stats.Errors.Add(1)
		writeJSON(w, code, errPayload(req, err))
		return
	}
	tr.Source = sourceWord(source)
	s.stats.Observe(req.Mech, time.Since(tr.Begin))
	w.Header().Set("X-Wmcs-Cache", source)
	// The network version the response was computed against — what a
	// churn driver needs to byte-verify against the matching replica.
	w.Header().Set("X-Wmcs-Version", strconv.FormatUint(ver, 10))
	s.writeTraced(w, traced, tr, http.StatusOK, body)
}

// evaluateWire is the single-query path shared by /v1/evaluate and each
// /v1/batch element: resolve the network, canonicalize, admit. ver is
// the network version the answer was computed against. The returned
// code is the HTTP status for a non-nil error. tr (nil ok) collects the
// canonicalize span here and the deeper pipeline spans downstream.
func (s *Server) evaluateWire(req EvalRequest, tr *obs.Trace) (body []byte, source string, ver uint64, code int, err error) {
	entry, ok := s.reg.Get(req.Network)
	if !ok {
		return nil, "", 0, http.StatusNotFound, fmt.Errorf("unknown network %q", req.Network)
	}
	canonStart := time.Now()
	c, err := Canonicalize(req, entry.Net.N(), entry.Net.Source())
	tr.RecordSince(obs.StageCanonicalize, canonStart)
	if errors.Is(err, ErrBadApprox) {
		// The request decoded and the shape is right — the approx
		// parameters just violate their contract. That is a semantic
		// defect like a domain mismatch (422), not a malformed request
		// (400), and emphatically not a server fault (500).
		return nil, "", 0, http.StatusUnprocessableEntity, err
	}
	if err != nil {
		return nil, "", 0, http.StatusBadRequest, err
	}
	// Registry-declared domain check, before admission: a valid name on
	// a network outside its domain is a structured 422 — the same
	// verdict the per-network listing in /v1/networks advertises, so the
	// two can never disagree. (Stable under updates: mutation ops cannot
	// change the network class.)
	if err := entry.CheckMech(c.Mech); err != nil {
		return nil, "", 0, http.StatusUnprocessableEntity, err
	}
	s.stats.Queries.Add(1)
	body, source, ver, err = s.evaluateEntry(entry, c, tr)
	if errors.Is(err, errShuttingDown) {
		// Retryable against another replica or after restart — must not
		// look like a client error.
		return nil, "", ver, http.StatusServiceUnavailable, err
	}
	if errors.Is(err, errInternal) {
		// Server-side faults (recovered evaluation panics, unencodable
		// outcomes) are ours, not the caller's.
		return nil, "", ver, http.StatusInternalServerError, err
	}
	if err != nil {
		// Remaining post-canonicalization failures are network-class
		// mismatches (e.g. a line mechanism on a 2-d network).
		return nil, "", ver, http.StatusUnprocessableEntity, err
	}
	return body, source, ver, 0, nil
}

// errBody is the error wire form. Code annotates the structured
// rejections clients can branch on without parsing the message:
// "unsupported_domain" (the mechanism's declared domain does not admit
// the target network — the combination /v1/networks would not
// advertise), "unknown_mechanism" (no such registry name), "bad_approx"
// (an approx spec violating its contract) and "no_approx_tier" (an
// approx request against a mechanism without a sampled tier — the
// combination /v1/mechanisms would not advertise).
type errBody struct {
	Error   string `json:"error"`
	Code    string `json:"code,omitempty"`
	Mech    string `json:"mech,omitempty"`
	Network string `json:"network,omitempty"`
}

// errPayload classifies an evaluation error into its wire form using
// the registry's typed errors.
func errPayload(req EvalRequest, err error) errBody {
	b := errBody{Error: err.Error()}
	switch {
	case errors.Is(err, mechreg.ErrUnsupportedDomain):
		b.Code, b.Mech, b.Network = "unsupported_domain", req.Mech, req.Network
	case errors.Is(err, mechreg.ErrUnknownMechanism):
		b.Code, b.Mech = "unknown_mechanism", req.Mech
	case errors.Is(err, ErrBadApprox):
		b.Code, b.Mech = "bad_approx", req.Mech
	case errors.Is(err, query.ErrNoApproxTier):
		b.Code, b.Mech = "no_approx_tier", req.Mech
	}
	return b
}

// batchElem is one /v1/batch result: the canonical response bytes of
// the element, or its error (structured like the single endpoint's).
type batchElem struct {
	req  EvalRequest
	body []byte
	err  error
}

func (e batchElem) MarshalJSON() ([]byte, error) {
	if e.err != nil {
		return json.Marshal(errPayload(e.req, e.err))
	}
	return e.body, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer s.stats.TrackInFlight()()
	tr := s.tracer.Start("batch")
	// The outer batch trace skips the stage histograms: its fan-out span
	// is a batch-level wall, not a per-request pipeline stage (the
	// children feed the histograms instead).
	defer s.closeTrace(tr, false)
	w.Header().Set("X-Wmcs-Trace", tr.ID)
	var reqs []EvalRequest
	if code, err := decodeJSON(w, r, &reqs); err != nil {
		tr.RecordSince(obs.StageAdmission, tr.Begin)
		tr.Status, tr.Err = code, err.Error()
		s.stats.Errors.Add(1)
		writeErr(w, code, err.Error())
		return
	}
	if len(reqs) > maxBatchRequest {
		tr.RecordSince(obs.StageAdmission, tr.Begin)
		tr.Status = http.StatusRequestEntityTooLarge
		tr.Err = fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), maxBatchRequest)
		s.stats.Errors.Add(1)
		writeErr(w, http.StatusRequestEntityTooLarge, tr.Err)
		return
	}
	tr.RecordSince(obs.StageAdmission, tr.Begin)
	// Fan the elements out concurrently: distinct queries take compute
	// slots like any /v1/evaluate miss, identical ones coalesce in the
	// flight group, hits return immediately. Each
	// element carries a child trace (ID "<batch>.<i>") and times itself,
	// so the per-mechanism quantiles reflect per-query service latency,
	// not the whole batch's wall clock — and a slow element ranks in
	// /debugz/slow individually, pointing back at its batch.
	fanStart := time.Now()
	elems := make([]batchElem, len(reqs))
	done := make(chan int, len(reqs))
	for i := range reqs {
		go func(i int) {
			ct := s.tracer.StartChild(tr, i)
			defer s.closeTrace(ct, true)
			ct.Network, ct.Mech = reqs[i].Network, reqs[i].Mech
			body, source, ver, code, err := s.evaluateWire(reqs[i], ct)
			ct.Version = ver
			elems[i] = batchElem{req: reqs[i], body: body, err: err}
			if err != nil {
				ct.Status, ct.Err = code, err.Error()
				s.stats.Errors.Add(1)
			} else {
				ct.Status, ct.Source = http.StatusOK, sourceWord(source)
				s.stats.Observe(reqs[i].Mech, time.Since(ct.Begin))
			}
			done <- i
		}(i)
	}
	for range reqs {
		<-done
	}
	tr.RecordSince(obs.StageEvaluate, fanStart)
	encStart := time.Now()
	tr.Status = http.StatusOK
	if wantTrace(r) {
		// The envelope embeds the canonical batch body verbatim; marshal
		// it first so the trace's encode span covers the real work.
		body, err := json.Marshal(elems)
		if err != nil {
			tr.Status, tr.Err = http.StatusInternalServerError, err.Error()
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		tr.Record(obs.StageEncode, encStart, time.Since(encStart))
		writeJSON(w, http.StatusOK, tracedResponse{Trace: tr.Snapshot(), Response: body})
		return
	}
	writeJSON(w, http.StatusOK, elems)
	tr.Record(obs.StageEncode, encStart, time.Since(encStart))
}

// maxBatchRequest caps the element count of one /v1/batch request.
const maxBatchRequest = 1024

// maxBodyBytes bounds request bodies (a 100k-station profile is ~2MB;
// 16MB leaves headroom without inviting abuse).
const maxBodyBytes = 16 << 20

// decodeJSON decodes a request body, which must hold exactly one JSON
// value, into dst. On failure it also returns the status to answer: 413
// for a body over maxBodyBytes (the status /v1/batch uses for too many
// elements), 400 otherwise, trailing data after the value included.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return 0, nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	return code, fmt.Errorf("decoding request: %w", err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
