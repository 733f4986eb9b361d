// Command wmcsload replays deterministic workload mixes against a wmcsd
// daemon (-addr) or an in-process server (default) and reports
// throughput, cache behavior and latency quantiles. It is the load
// driver and CI's byte verifier; the serving benchmark is servebench.
// Server-side figures come from the /metricsz scrapes taken before and
// after the run, which are strict-parsed and histogram-checked, so
// every run also certifies the exposition.
//
// The query stream is reproducible: pool contents, Zipf draws and the
// query→mechanism assignment all derive from -seed, and every response
// is checked for byte-identity against the first response seen for the
// same canonical key, so a cache hit that differs from its cold
// evaluation fails the run (exit 1).
//
// Mechanism pinning and the re-pin rule: a query is pinned to
// -mechs[h mod len(-mechs)], where h hashes the query's identity. When
// the pinned mechanism's declared domain does not admit the round-robin
// target network (e.g. line-shapley pinned onto a 2-d disk network),
// the query is re-pinned deterministically *within the supported
// subset* of -mechs for that network — same hash, reduced modulo the
// subset in -mechs order — instead of burning a request on a
// guaranteed 422. The subset comes from the mechanism registry's
// per-network domain predicate (exactly what the daemon's /v1/networks
// advertises), and the rule uses nothing but (hash, -mechs, network
// class), so runs stay byte-reproducible at every -parallel. A network
// supporting none of -mechs fails the run up front (exit 2).
//
// Usage:
//
//	wmcsload                         # in-process, hotset mix, demo networks
//	wmcsload -addr :8571             # drive a running wmcsd
//	wmcsload -workload uniform       # cache-adversarial baseline
//	wmcsload -quick                  # small run for CI smoke
//	wmcsload -parallel 16 -queries 8000 -json
//	wmcsload -quick -parallel-eval 1  # in-process server at one compute slot
//
// The in-process server evaluates at -parallel-eval, GOMAXPROCS unless
// set, as wmcsd does.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"wmcs/internal/cliutil"
	"wmcs/internal/detorder"
	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/obs"
	"wmcs/internal/serve"
	"wmcs/internal/stats"
	"wmcs/internal/wireless"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon address (host:port or URL); empty = boot an in-process server")
		manifest = flag.String("manifest", "", "JSON array of scenario specs to drive (default: the wmcsd demo set)")
		workload = flag.String("workload", "hotset", "workload mix: uniform | hotset | mixed")
		mechsCSV = flag.String("mechs", strings.Join(mechreg.GeneralNames(), ","),
			"comma-separated mechanism names to spread queries over (default: every general-domain mechanism)")
		queries  = flag.Int("queries", 4000, "total queries to issue")
		parallel = flag.Int("parallel", 8, "concurrent client workers")
		parEval  = flag.Int("parallel-eval", 0, "evaluation width of the in-process server, as wmcsd -parallel-eval (0 = GOMAXPROCS, logged at boot); the bytes are the same at every width, so width-1 verifiers check any server")
		hot      = flag.Int("hot", 32, "hot-set pool size per network (hotset/mixed workloads)")
		zipfS    = flag.Float64("zipf", 1.2, "Zipf exponent over the hot pool (> 1)")
		umax     = flag.Float64("umax", 50, "utilities drawn uniformly from [0, umax)")
		seed     = flag.Int64("seed", 1, "workload seed")
		quick    = flag.Bool("quick", false, "small run (600 queries, 4 workers, pool 16)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		repFile  = flag.String("report", "", "write a machine-readable JSON run report (latency summaries, hit rate, queue-wait share from /metricsz deltas) to this file")
		noVerify = flag.Bool("no-verify", false, "skip response byte-identity verification")
		churn    = flag.Bool("churn", false, "interleave PATCH network updates with the query stream and verify every response against a cold evaluator on its exact network version (re-registers the driven networks for a version-0 baseline)")
		updates  = flag.Int("updates", 12, "PATCH updates to interleave in -churn mode (quick: 6)")
		churnMod = flag.String("churn-model", "auto", "churn model: auto | "+strings.Join(instances.ChurnModelNames(), " | "))
	)
	cliutil.Parse()
	if *quick {
		// Quick presets yield to flags the user set explicitly.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["queries"] {
			*queries = 600
		}
		if !set["parallel"] {
			*parallel = 4
		}
		if !set["hot"] {
			*hot = 16
		}
		if !set["updates"] {
			*updates = 6
		}
	}
	if *parallel < 1 {
		*parallel = 1
	}
	// Reject out-of-domain tuning flags instead of letting the workload
	// layer silently substitute defaults — the report prints the
	// requested values, so a clamp would mislabel the run's figures.
	if *zipfS <= 1 {
		cliutil.Die("-zipf must be > 1 (got %g)", *zipfS)
	}
	if *hot < 1 {
		cliutil.Die("-hot must be >= 1 (got %d)", *hot)
	}
	if *umax <= 0 {
		cliutil.Die("-umax must be > 0 (got %g)", *umax)
	}
	width, auto := cliutil.Width("-parallel-eval", *parEval)
	if *churn {
		if *updates < 1 || *updates >= *queries {
			cliutil.Die("-updates must be in [1, queries) (got %d for %d queries)", *updates, *queries)
		}
		if *churnMod != "auto" {
			cliutil.OneOf("-churn-model", *churnMod, instances.ChurnModelNames())
		}
	}
	wl, err := instances.WorkloadByName(*workload)
	if err != nil {
		cliutil.Die("%v", err)
	}
	mechs := cliutil.SplitList(*mechsCSV)
	if len(mechs) == 0 {
		cliutil.Die("-mechs is empty")
	}
	for _, m := range mechs {
		cliutil.OneOf("-mechs", m, mechreg.Names())
	}

	specs := serve.DefaultSpecs()
	if *manifest != "" {
		f, err := os.Open(*manifest)
		if err != nil {
			cliutil.Die("%v", err)
		}
		specs, err = instances.ParseManifest(f)
		f.Close()
		if err != nil {
			cliutil.Die("%s: %v", *manifest, err)
		}
		if len(specs) == 0 {
			cliutil.Die("manifest %s lists no networks", *manifest)
		}
	}

	if auto && *addr == "" {
		fmt.Fprintf(os.Stderr, "wmcsload: in-process server at evaluation width %d (auto: GOMAXPROCS)\n", width)
	}
	baseURL, shutdown, err := connectOrBoot(*addr, specs, width)
	if err != nil {
		cliutil.Die("%v", err)
	}
	defer shutdown()
	if *churn {
		// Churn mode owns its networks' lifecycle: re-register for a
		// version-0 baseline so replica replay starts from the spec.
		if err := ensureFreshNetworks(baseURL, specs); err != nil {
			cliutil.Die("%v", err)
		}
	} else if err := ensureNetworks(baseURL, specs); err != nil {
		cliutil.Die("%v", err)
	}

	// Client-side replicas of the networks: Spec.Build is deterministic,
	// so these agree exactly with what the server hosts; samplers only
	// need station count and source.
	nets := make([]*wireless.Network, len(specs))
	for i, sp := range specs {
		if nets[i], err = sp.Build(); err != nil {
			cliutil.Die("%v", err)
		}
	}

	// The re-pin domain: per driven network, the supported subset of
	// -mechs in -mechs order (the modulus of the re-pin rule). Derived
	// from the registry's domain predicates on the client replicas,
	// which agree with the server's /v1/networks advertisement because
	// both read the same registry.
	mechsFor := make([][]string, len(nets))
	for j, nw := range nets {
		for _, m := range mechs {
			if mechreg.Supports(m, nw) == nil {
				mechsFor[j] = append(mechsFor[j], m)
			}
		}
		if len(mechsFor[j]) == 0 {
			cliutil.Die("network %q supports none of -mechs %v (supported there: %v)",
				specs[j].Name, mechs, mechreg.SupportedNames(nw))
		}
	}

	before, err := scrapeMetrics(baseURL)
	if err != nil {
		cliutil.Die("%v", err)
	}

	cfg := loadConfig{
		baseURL:  baseURL,
		specs:    specs,
		nets:     nets,
		workload: wl,
		mechs:    mechs,
		mechsFor: mechsFor,
		queries:  *queries,
		parallel: *parallel,
		seed:     *seed,
		verify:   !*noVerify,
		opts: instances.WorkloadOptions{
			HotSets: *hot,
			ZipfS:   *zipfS,
			UMax:    *umax,
		},
	}
	var churnDrv *churnDriver
	if *churn {
		if churnDrv, err = newChurnDriver(cfg, *updates, *churnMod, *seed); err != nil {
			cliutil.Die("%v", err)
		}
		cfg.churn = churnDrv
		go churnDrv.run()
	}
	run := runLoad(cfg)
	if churnDrv != nil {
		verified, mismatches, firstErr := churnDrv.finish()
		run.compared += verified
		run.mismatches += mismatches
		if firstErr != "" {
			run.errors++
			if run.firstError == "" {
				run.firstError = firstErr
			}
		}
	}

	after, err := scrapeMetrics(baseURL)
	if err != nil {
		cliutil.Die("%v", err)
	}

	meta := reportMeta{
		workload: wl.Name, queries: *queries, parallel: *parallel,
		hot: *hot, zipf: *zipfS, seed: *seed, nets: len(specs),
		churn: churnDrv,
	}
	report(run, before, after, *jsonOut, meta)
	if *repFile != "" {
		if err := writeRunReport(*repFile, buildRunReport(run, meta, before, after)); err != nil {
			cliutil.Die("writing -report: %v", err)
		}
	}
	if run.errors > 0 || run.mismatches > 0 {
		os.Exit(1)
	}
}

// connectOrBoot returns the base URL of the target daemon, booting an
// in-process server on a loopback port when addr is empty so the driver
// exercises the identical HTTP path either way.
func connectOrBoot(addr string, specs []instances.Spec, width int) (string, func(), error) {
	if addr != "" {
		if !strings.Contains(addr, "://") {
			if strings.HasPrefix(addr, ":") {
				addr = "127.0.0.1" + addr
			}
			addr = "http://" + addr
		}
		return strings.TrimSuffix(addr, "/"), func() {}, nil
	}
	reg := serve.NewRegistry()
	reg.SetParallel(width)
	for _, sp := range specs {
		if err := reg.RegisterSpec(sp); err != nil {
			return "", nil, err
		}
	}
	srv := serve.NewServer(reg, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	shutdown := func() {
		httpSrv.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// ensureNetworks registers any spec the daemon does not already host;
// conflicts (someone else registered it first) are fine. A name the
// daemon hosts under a *different* spec is an error: the driver
// canonicalizes against client-side Spec.Build replicas, so a spec
// mismatch would surface as inexplicable 400s or false byte-mismatch
// failures against a perfectly healthy server.
func ensureNetworks(baseURL string, specs []instances.Spec) error {
	resp, err := httpClient.Get(baseURL + "/v1/networks")
	if err != nil {
		return fmt.Errorf("listing networks: %w", err)
	}
	var list struct {
		Networks []struct {
			Name string          `json:"name"`
			Spec *instances.Spec `json:"spec"`
		} `json:"networks"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("listing networks: %w", err)
	}
	have := map[string]*instances.Spec{}
	for _, n := range list.Networks {
		sp := n.Spec
		if sp == nil {
			sp = &instances.Spec{} // hosted, but not built from a spec
		}
		have[n.Name] = sp
	}
	for _, sp := range specs {
		if hosted, ok := have[sp.Name]; ok {
			if *hosted != sp {
				return fmt.Errorf("network %q is already hosted with a different spec (server: %+v, driver: %+v) — the driver's client-side replica would disagree with the server; evict it or rename the driver spec", sp.Name, *hosted, sp)
			}
			continue
		}
		b, _ := json.Marshal(sp)
		resp, err := httpClient.Post(baseURL+"/v1/networks", "application/json", bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("registering %s: %w", sp.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return fmt.Errorf("registering %s: status %d", sp.Name, resp.StatusCode)
		}
	}
	return nil
}

// httpClient is the driver's shared client for the control-plane calls
// (listing, registration, /metricsz scrapes). The timeout turns a wedged daemon
// into a reported error rather than an indefinite hang (CI runs this
// with no step-level timeout).
var httpClient = &http.Client{Timeout: 30 * time.Second}

type loadConfig struct {
	baseURL  string
	specs    []instances.Spec
	nets     []*wireless.Network
	workload instances.Workload
	mechs    []string
	// mechsFor[j] is the supported subset of mechs on network j, in
	// mechs order — the re-pin rule's domain (never empty; main dies).
	mechsFor [][]string
	queries  int
	parallel int
	seed     int64
	verify   bool
	opts     instances.WorkloadOptions
	// churn, when non-nil, switches verification to the churn driver's
	// generation-pinned cold comparison and paces its updater.
	churn *churnDriver
}

// pinMech resolves a query's mechanism on network j: the hash pins into
// the full -mechs list; if that mechanism's domain does not admit the
// network, the same hash is reduced modulo the network's supported
// subset instead. Deterministic in (hash, -mechs, network class) only,
// so runs are byte-reproducible at every -parallel.
func (cfg loadConfig) pinMech(j, hash int) (name string, repinned bool) {
	name = cfg.mechs[hash%len(cfg.mechs)]
	for _, m := range cfg.mechsFor[j] {
		if m == name {
			return name, false
		}
	}
	return cfg.mechsFor[j][hash%len(cfg.mechsFor[j])], true
}

type mechStats struct {
	count                int
	hits, misses, coales int
	latMS                []float64
}

type loadResult struct {
	wall       time.Duration
	perMech    map[string]*mechStats
	errors     int
	firstError string
	mismatches int
	distinct   int
	compared   int
	repinned   int
}

// runLoad fans the query stream over parallel client workers. Worker w
// issues global query indices w, w+P, w+2P, …; each worker holds one
// sampler per network whose hot pool derives from (seed, network) only
// — shared across workers — while its draw order derives from (seed,
// worker, network), so workers hammer the same working set from
// independent angles.
func runLoad(cfg loadConfig) loadResult {
	res := loadResult{perMech: map[string]*mechStats{}}
	for _, m := range cfg.mechs {
		res.perMech[m] = &mechStats{}
	}
	var (
		mu   sync.Mutex
		seen = map[string][]byte{}
		// Generous per-request timeout: cold wireless-bb evaluations take
		// tens of milliseconds, so a minute means the daemon is wedged —
		// count it as an error instead of hanging the run (and CI) forever.
		client = &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: cfg.parallel},
		}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samplers := make([]instances.Sampler, len(cfg.nets))
			for j := range cfg.nets {
				opt := cfg.opts
				opt.PoolRNG = engine.RNG(cfg.seed, 9000+j)
				samplers[j] = cfg.workload.New(engine.RNG(cfg.seed, 7000+w*131+j), cfg.nets[j], opt)
			}
			for q := w; q < cfg.queries; q += cfg.parallel {
				j := q % len(cfg.nets)
				query := samplers[j].Next()
				mechName, repinned := cfg.pinMech(j, mechFor(query))
				if repinned {
					mu.Lock()
					res.repinned++
					mu.Unlock()
				}
				req := serve.EvalRequest{
					Network: cfg.specs[j].Name,
					Mech:    mechName,
					R:       query.R,
					Profile: query.U,
				}
				body, _ := json.Marshal(req)
				t0 := time.Now()
				resp, err := client.Post(cfg.baseURL+"/v1/evaluate", "application/json", bytes.NewReader(body))
				if cfg.churn != nil {
					// Pace the updater on attempts, success or not.
					cfg.churn.completed.Add(1)
				}
				if err != nil {
					mu.Lock()
					res.errors++
					if res.firstError == "" {
						res.firstError = err.Error()
					}
					mu.Unlock()
					continue
				}
				respBody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				source := resp.Header.Get("X-Wmcs-Cache")
				// Churn verification runs outside the global mutex (it may
				// evaluate cold); its verdict is folded into the counters
				// below.
				v := verdictSkip
				if cfg.verify && cfg.churn != nil && resp.StatusCode == http.StatusOK {
					v = cfg.churn.check(j, req, resp.Header.Get("X-Wmcs-Version"), respBody)
				}
				mu.Lock()
				if resp.StatusCode != http.StatusOK {
					res.errors++
					if res.firstError == "" {
						res.firstError = fmt.Sprintf("status %d: %s", resp.StatusCode, respBody)
					}
					mu.Unlock()
					continue
				}
				ms := res.perMech[mechName]
				ms.count++
				ms.latMS = append(ms.latMS, float64(lat.Nanoseconds())/1e6)
				switch source {
				case "hit":
					ms.hits++
				case "coalesced":
					ms.coales++
				default:
					ms.misses++
				}
				switch {
				case cfg.verify && cfg.churn != nil:
					switch v {
					case verdictOK:
						res.compared++
					case verdictMismatch:
						res.compared++
						res.mismatches++
						if res.firstError == "" {
							res.firstError = fmt.Sprintf("byte mismatch on %s/%s vs cold evaluation of version %s",
								req.Network, req.Mech, resp.Header.Get("X-Wmcs-Version"))
						}
					}
					// verdictPending resolves in churnDriver.finish;
					// verdictSkip is uncounted.
				case cfg.verify:
					c, cerr := serve.Canonicalize(req, cfg.nets[j].N(), cfg.nets[j].Source())
					if cerr == nil {
						// Canon keys are per-network; qualify with the name
						// (one run never crosses a re-registration, so the
						// name is identity enough client-side).
						key := req.Network + "\x1f" + c.Key
						if prev, ok := seen[key]; ok {
							res.compared++
							if !bytes.Equal(prev, respBody) {
								res.mismatches++
								if res.firstError == "" {
									res.firstError = fmt.Sprintf("byte mismatch on %s/%s", req.Network, req.Mech)
								}
							}
						} else {
							seen[key] = respBody
						}
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.distinct = len(seen)
	return res
}

// mechFor assigns a mechanism index to a query by hashing its identity
// (receiver set + utility bits): deterministic across workers and runs,
// and stable per distinct query, so repeats always land on the same
// mechanism and stay cacheable.
func mechFor(q instances.Query) int {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range q.R {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	for _, u := range q.U {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(u))
		h.Write(buf[:])
	}
	return int(h.Sum64() % math.MaxInt32)
}

type reportMeta struct {
	workload          string
	queries, parallel int
	hot               int
	zipf              float64
	seed              int64
	nets              int
	churn             *churnDriver // nil outside -churn mode
}

func report(run loadResult, before, after *obs.PromDoc, jsonOut bool, meta reportMeta) {
	tab := stats.NewTable(
		fmt.Sprintf("wmcsload: %s workload, %d queries, %d workers (seed %d)",
			meta.workload, meta.queries, meta.parallel, meta.seed),
		"mechanism", "queries", "hit", "miss", "coalesced", "p50 ms", "p90 ms", "p99 ms")
	for _, n := range detorder.Keys(run.perMech) {
		ms := run.perMech[n]
		sort.Float64s(ms.latMS)
		q := func(p float64) string {
			if len(ms.latMS) == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", stats.Quantile(ms.latMS, p))
		}
		tab.Add(n, fmt.Sprint(ms.count), fmt.Sprint(ms.hits), fmt.Sprint(ms.misses),
			fmt.Sprint(ms.coales), q(0.50), q(0.90), q(0.99))
	}
	served := meta.queries - run.errors
	qps := float64(served) / run.wall.Seconds()
	tab.Note("mix: %d networks, hot pool %d/network, zipf s=%g", meta.nets, meta.hot, meta.zipf)
	tab.Note("wall %.2fs   throughput %.0f q/s   errors %d", run.wall.Seconds(), qps, run.errors)
	grew := func(name string) uint64 { return counterDelta(before, after, name) }
	dHits, dQueries := grew("wmcs_cache_hits_total"), grew("wmcs_requests_total")
	hitRate := 0.0
	if dQueries > 0 {
		hitRate = float64(dHits) / float64(dQueries)
	}
	tab.Note("server: %d queries, %d cache hits (hit rate %.1f%%), %d coalesced, %d evaluations",
		dQueries, dHits, 100*hitRate, grew("wmcs_coalesced_total"), grew("wmcs_evaluations_total"))
	if meta.churn != nil {
		meta.churn.report(tab)
		tab.Note("server: %d updates applied (%d ops); generation-bumped in place, no evict/re-register",
			grew("wmcs_updates_total"), grew("wmcs_update_ops_total"))
		tab.Note("verification: %d responses verified against cold per-version evaluators, %d byte mismatches",
			run.compared, run.mismatches)
	} else {
		tab.Note("verification: %d distinct queries, %d repeat responses compared, %d byte mismatches",
			run.distinct, run.compared, run.mismatches)
	}
	if run.repinned > 0 {
		tab.Note("re-pinned %d queries whose hash-pinned mechanism the target network does not support", run.repinned)
	}
	if run.firstError != "" {
		tab.Note("first error: %s", run.firstError)
	}
	if jsonOut {
		if err := tab.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	tab.Render(os.Stdout)
}
