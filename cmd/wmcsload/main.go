// Command wmcsload replays deterministic workload mixes against a wmcsd
// daemon (-addr) or an in-process server (default) and reports
// throughput, cache behavior and latency quantiles. It is the load
// driver and CI's byte verifier; the serving benchmark is servebench.
// Server-side figures come from the /metricsz scrapes taken before and
// after the run, which are strict-parsed and histogram-checked, so
// every run also certifies the exposition.
//
// The query stream is reproducible: pool contents, Zipf draws and the
// query→mechanism assignment all derive from -seed. Every 200 response
// is verified by one rule, in every mode: a repeat of a (network,
// version, canonical request) must equal the first response, and after
// the timed phase each first response must equal the bytes of a cold
// width-1 evaluation over wmcsload's replica of the network version
// its X-Wmcs-Version header names. Any mismatch fails the run (exit 1).
// wmcsload therefore owns its networks' lifecycle: it evicts and
// re-registers each one before the run, so version 0 is Spec.Build's
// network, and -churn's updater records a replica of every later
// version it creates.
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
//	wmcsload -parallel 16 -queries 8000 -json > run.json
//	wmcsload -quick -parallel-eval 1  # in-process server at one compute slot
//
// The in-process server evaluates at -parallel-eval, GOMAXPROCS unless
// set, as wmcsd does.
//
// Exit codes: 2 for bad input — a flag, the manifest, a spec that does
// not build, a network supporting none of -mechs, a -churn-model that
// does not apply — reported with a pointer to -h before the daemon is
// contacted; 1 for a run that failed after that — an unreachable
// daemon, a refused eviction or registration, a failed or malformed
// /metricsz scrape, a failed query or a byte mismatch; 0 otherwise.
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
	"strconv"
	"strings"
	"sync"
	"time"

	"wmcs/internal/cliutil"
	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon address (host:port or URL); empty = boot an in-process server")
		manifest = flag.String("manifest", "", "JSON array of scenario specs to drive (default: the wmcsd demo set); each is evicted and re-registered before the run")
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
		jsonOut  = flag.Bool("json", false, "print the run report as one JSON document instead of the table")
		churn    = flag.Bool("churn", false, "interleave PATCH network updates with the query stream")
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
	// Reject out-of-domain tuning flags instead of letting the workload
	// layer silently substitute defaults — the report prints the
	// requested values, so a clamp would mislabel the run's figures.
	if *parallel < 1 {
		cliutil.Die("-parallel must be >= 1 (got %d)", *parallel)
	}
	if *queries < 1 {
		cliutil.Die("-queries must be >= 1 (got %d)", *queries)
	}
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

	// Client-side replicas of the networks. Spec.Build is deterministic,
	// so they agree exactly with the version 0 the server hosts once
	// ensureFreshNetworks has re-registered them. Samplers and
	// canonicalization only read them. They, the re-pin domains and the
	// churn models below are settled before the daemon is contacted, so
	// a bad spec is bad input (exit 2) like a bad flag.
	if err := distinctNames(specs); err != nil {
		cliutil.Die("%v", err)
	}
	nets := make([]*wireless.Network, len(specs))
	replicas := make([]map[uint64]*wireless.Network, len(specs))
	for i, sp := range specs {
		if nets[i], err = sp.Build(); err != nil {
			cliutil.Die("%v", err)
		}
		replicas[i] = map[uint64]*wireless.Network{0: nets[i]}
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

	cfg := loadConfig{
		specs:    specs,
		nets:     nets,
		replicas: replicas,
		workload: wl,
		mechs:    mechs,
		mechsFor: mechsFor,
		queries:  *queries,
		parallel: *parallel,
		seed:     *seed,
		opts: instances.WorkloadOptions{
			HotSets: *hot,
			ZipfS:   *zipfS,
			UMax:    *umax,
		},
	}
	var churnDrv *churnDriver
	if *churn {
		if churnDrv, err = newChurnDriver(&cfg, *updates, *churnMod, *seed); err != nil {
			cliutil.Die("%v", err)
		}
		cfg.churn = churnDrv
	}

	// From here on the input is accepted: a failure is a failed run
	// (exit 1), not a usage error.
	if auto && *addr == "" {
		fmt.Fprintf(os.Stderr, "wmcsload: in-process server at evaluation width %d (auto: GOMAXPROCS)\n", width)
	}
	baseURL, shutdown, err := connectOrBoot(*addr, width)
	if err != nil {
		fatal(err)
	}
	defer shutdown()
	cfg.baseURL = baseURL
	if err := ensureFreshNetworks(baseURL, specs); err != nil {
		fatal(err)
	}
	before, err := scrapeMetrics(baseURL)
	if err != nil {
		fatal(err)
	}
	if churnDrv != nil {
		go churnDrv.run()
	}
	run := runLoad(cfg)
	var rebuildMS []float64
	if churnDrv != nil {
		// The updater has exited once finish returns, so every version
		// it created has its replica.
		if err := churnDrv.finish(); err != nil {
			run.fail(err.Error())
		}
		rebuildMS = churnDrv.rebuildMS
	}

	after, err := scrapeMetrics(baseURL)
	if err != nil {
		fatal(err)
	}
	run.mismatch(verify(cfg, run.firsts))

	doc := runReportDoc{
		Workload: wl.Name, Queries: *queries, Parallel: *parallel,
		Hot: *hot, Zipf: *zipfS, Seed: *seed, Networks: len(specs),
		Churn: *churn, RebuildMS: rebuildMS,
	}
	doc.fill(run, before, after)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
	} else {
		doc.table().Render(os.Stdout)
	}
	if run.errors > 0 || run.mismatches > 0 {
		os.Exit(1)
	}
}

// fatal reports a run that failed after its input was accepted and
// exits 1. Unlike cliutil.Die it prints no usage pointer: an
// unreachable daemon is not a mistyped flag.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wmcsload: %v\n", err)
	os.Exit(1)
}

// connectOrBoot returns the base URL of the target daemon, booting an
// empty in-process server on a loopback port when addr is empty, so
// every run exercises the identical HTTP path.
func connectOrBoot(addr string, width int) (string, func(), error) {
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

// distinctNames rejects a spec list that names one network twice: its
// second registration would evict the first, and the first spec's
// replica would no longer match what the server hosts.
func distinctNames(specs []instances.Spec) error {
	listed := map[string]bool{}
	for _, sp := range specs {
		if listed[sp.Name] {
			return fmt.Errorf("network %q is listed twice", sp.Name)
		}
		listed[sp.Name] = true
	}
	return nil
}

// ensureFreshNetworks re-registers every driven network — evict if
// hosted, then register — so the run starts from version 0 of the exact
// spec the client replicas are built from, whatever the daemon hosted
// under that name before (an earlier churn run, a different spec). It
// refuses a spec list that fails distinctNames before touching the
// daemon.
func ensureFreshNetworks(baseURL string, specs []instances.Spec) error {
	if err := distinctNames(specs); err != nil {
		return err
	}
	for _, sp := range specs {
		delReq, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/networks/"+sp.Name, nil)
		if err != nil {
			return err
		}
		resp, err := httpClient.Do(delReq)
		if err != nil {
			return fmt.Errorf("evicting %s: %w", sp.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("evicting %s: status %d", sp.Name, resp.StatusCode)
		}
		b, _ := json.Marshal(sp)
		resp, err = httpClient.Post(baseURL+"/v1/networks", "application/json", bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("registering %s: %w", sp.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d", sp.Name, resp.StatusCode)
		}
	}
	return nil
}

// httpClient is the driver's shared client for the control-plane calls
// (registration, PATCH updates, /metricsz scrapes). The timeout turns a
// wedged daemon into a reported error rather than an indefinite hang
// (CI runs this with no step-level timeout).
var httpClient = &http.Client{Timeout: 30 * time.Second}

type loadConfig struct {
	baseURL string
	specs   []instances.Spec
	nets    []*wireless.Network
	// replicas[j] maps each version of network j the run knows to its
	// replica: version 0 is nets[j], and -churn's updater adds the
	// versions it creates. Read only after the updater exits.
	replicas []map[uint64]*wireless.Network
	workload instances.Workload
	mechs    []string
	// mechsFor[j] is the supported subset of mechs on network j, in
	// mechs order — the re-pin rule's domain (never empty; main dies).
	mechsFor [][]string
	queries  int
	parallel int
	seed     int64
	opts     instances.WorkloadOptions
	// churn, when non-nil, is paced by the query stream.
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

// firstResponse is the first 200 body the run saw for one (network,
// version, canonical request); verify checks it against a cold
// evaluation.
type firstResponse struct {
	net     int
	version string // X-Wmcs-Version as served
	req     serve.CanonRequest
	body    []byte
}

type loadResult struct {
	wall       time.Duration
	perMech    map[string]*mechStats
	errors     int
	firstError string
	mismatches int
	compared   int
	repinned   int
	// seen maps (network, version, canonical key) to the first response's
	// bytes; firsts lists those responses for verify.
	seen   map[string][]byte
	firsts []firstResponse
}

func (r *loadResult) fail(msg string) {
	r.errors++
	if r.firstError == "" {
		r.firstError = msg
	}
}

func (r *loadResult) mismatch(n int, msg string) {
	r.mismatches += n
	if n > 0 && r.firstError == "" {
		r.firstError = msg
	}
}

// runLoad fans the query stream over parallel client workers. Worker w
// issues global query indices w, w+P, w+2P, …; each worker holds one
// sampler per network whose hot pool derives from (seed, network) only
// — shared across workers — while its draw order derives from (seed,
// worker, network), so workers hammer the same working set from
// independent angles. Each 200 response is compared with the first
// response for its (network, version, canonical request), or becomes
// that first response.
func runLoad(cfg loadConfig) loadResult {
	res := loadResult{perMech: map[string]*mechStats{}, seen: map[string][]byte{}}
	for _, m := range cfg.mechs {
		res.perMech[m] = &mechStats{}
	}
	var (
		mu sync.Mutex
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
				var respBody []byte
				if err == nil {
					respBody, _ = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				lat := time.Since(t0)
				mu.Lock()
				if repinned {
					res.repinned++
				}
				switch {
				case err != nil:
					res.fail(err.Error())
				case resp.StatusCode != http.StatusOK:
					res.fail(fmt.Sprintf("status %d: %s", resp.StatusCode, respBody))
				default:
					ms := res.perMech[mechName]
					ms.count++
					ms.latMS = append(ms.latMS, float64(lat.Nanoseconds())/1e6)
					switch resp.Header.Get("X-Wmcs-Cache") {
					case "hit":
						ms.hits++
					case "coalesced":
						ms.coales++
					default:
						ms.misses++
					}
					res.check(j, req, resp.Header.Get("X-Wmcs-Version"), respBody, cfg.nets[j])
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// check applies the repeat half of the verification rule to one 200
// response: a repeat must equal the first response for its (network,
// version, canonical request), and a first response is kept for verify.
func (r *loadResult) check(j int, req serve.EvalRequest, version string, body []byte, nw *wireless.Network) {
	r.compared++
	c, err := serve.Canonicalize(req, nw.N(), nw.Source())
	if err != nil {
		r.mismatch(1, fmt.Sprintf("%s/%s answered 200 to a request the client cannot canonicalize: %v", req.Network, req.Mech, err))
		return
	}
	key := req.Network + "\x1f" + version + "\x1f" + c.Key
	first, ok := r.seen[key]
	if !ok {
		r.seen[key] = body
		r.firsts = append(r.firsts, firstResponse{net: j, version: version, req: c, body: body})
		return
	}
	if !bytes.Equal(first, body) {
		r.mismatch(1, fmt.Sprintf("byte mismatch on %s/%s at version %s: a repeat differs from the first response", req.Network, req.Mech, version))
	}
}

// verify applies the cold half of the verification rule: each first
// response must equal serve.EncodeOutcome of a cold width-1 evaluator
// over the replica of the version it names. Width 1 verifies a server
// at any width, because the bytes are width-invariant (DESIGN.md §14).
// It runs serially after the timed phase and returns the mismatch
// count and the first mismatch's description.
func verify(cfg loadConfig, firsts []firstResponse) (mismatches int, firstMismatch string) {
	evs := map[[2]uint64]*query.Evaluator{}
	for _, f := range firsts {
		want, err := coldBytes(cfg, evs, f)
		if err == nil && bytes.Equal(want, f.body) {
			continue
		}
		mismatches++
		if firstMismatch != "" {
			continue
		}
		if err == nil {
			err = fmt.Errorf("byte mismatch on %s/%s vs cold evaluation of version %s", cfg.specs[f.net].Name, f.req.Mech, f.version)
		}
		firstMismatch = err.Error()
	}
	return mismatches, firstMismatch
}

// coldBytes evaluates f's canonical request on a cold evaluator over
// the replica of the version f names; evs holds one evaluator per
// (network, version).
func coldBytes(cfg loadConfig, evs map[[2]uint64]*query.Evaluator, f firstResponse) ([]byte, error) {
	name := cfg.specs[f.net].Name
	ver, err := strconv.ParseUint(f.version, 10, 64)
	replica := cfg.replicas[f.net][ver]
	if err != nil || replica == nil {
		return nil, fmt.Errorf("response labeled version %q of %s, which the run never created", f.version, name)
	}
	key := [2]uint64{uint64(f.net), ver}
	ev := evs[key]
	if ev == nil {
		ev = query.NewEvaluator(replica)
		evs[key] = ev
	}
	m, err := ev.Mechanism(f.req.Mech)
	if err != nil {
		return nil, fmt.Errorf("%s at version %d: %w", name, ver, err)
	}
	return serve.EncodeOutcome(name, f.req.Mech, m.Run(f.req.Profile))
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
