package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmcs/internal/instances"
	"wmcs/internal/obs"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// stack is one booted serving stack: wmcsd's server in process, on a
// loopback listener.
type stack struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

func boot(specs []instances.Spec) (*stack, error) {
	reg := serve.NewRegistry()
	for _, sp := range specs {
		if err := reg.RegisterSpec(sp); err != nil {
			return nil, err
		}
	}
	// The zero Options are what wmcsd runs with when given no flags:
	// serial tier, default cache, GOMAXPROCS-wide batches. No logger.
	srv := serve.NewServer(reg, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &stack{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return st, nil
}

// close stops the listener and every connection, waits for Serve to
// return, then stops the admission dispatcher.
func (st *stack) close() {
	st.hs.Close()
	<-st.served
	st.srv.Close()
}

// client is one closed-loop client with its own connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer // the last response body
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, base: base}
}

// do sends one request and reads the whole response body into c.buf.
func (c *client) do(method, path string, body []byte) (status int, version string, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Wmcs-Version"), nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// statsz holds the /statsz counters the per-layer rows use.
type statsz struct {
	Queries              uint64 `json:"queries"`
	Batches              uint64 `json:"batches"`
	BatchedQueries       uint64 `json:"batched_queries"`
	Updates              uint64 `json:"updates"`
	CarriedEntries       uint64 `json:"carried_entries"`
	RebuildIncrementalUS struct {
		Count uint64 `json:"count"`
	} `json:"rebuild_incremental_us"`
	Cache struct {
		Hits uint64 `json:"hits"`
	} `json:"cache"`
}

// scrape is one reading of the server's own counters.
type scrape struct {
	stats statsz
	prom  *obs.PromDoc
}

func (c *client) scrape() (scrape, error) {
	var s scrape
	status, _, err := c.do(http.MethodGet, "/statsz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(c.buf.Bytes(), &s.stats)
	}
	if err != nil {
		return s, fmt.Errorf("/statsz: %w", err)
	}
	status, _, err = c.do(http.MethodGet, "/metricsz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		s.prom, err = obs.ParseProm(bytes.NewReader(c.buf.Bytes()))
	}
	if err != nil {
		return s, fmt.Errorf("/metricsz: %w", err)
	}
	return s, nil
}

// passOpts select what one pass over a workload's inputs does.
type passOpts struct {
	setups int  // setups to time; the last one serves the timed phase
	scrape bool // read the server's counters after boot and after the timed phase
	verify bool // check every distinct answer against a cold evaluation afterwards
	// tr, when set, records one span per client operation.
	tr *[clients]*tracer
	// probe, when set, runs on the stack after the timed phase.
	probe func(st *stack) error
}

// passResult is what one pass measured.
type passResult struct {
	setup   []time.Duration
	wall    time.Duration   // timed phase
	reads   []time.Duration // successful timed-phase reads
	updates []time.Duration // successful timed-phase PATCHes
	heapMB  float64         // live heap after a forced GC at the end of the timed phase
	// scrapes: after boot, after the timed phase.
	scrapes   [2]scrape
	attempted int
	failed    int
	firstErr  string
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// verKey names one response: network, version and request item.
type verKey struct {
	net  int
	ver  uint64
	item int
}

// clientState is one client's share of a timed phase.
type clientState struct {
	reads, updates []time.Duration
	// seen keeps the first body per verKey, for inline repeat checks and
	// the cold evaluations after the run.
	seen      map[verKey][]byte
	attempted int
	res       passResult // failures only
}

// pass sets up the stack opts.setups times and runs the timed phase on
// the last one.
func pass(in *inputs, opts passOpts) (passResult, error) {
	var res passResult
	var st *stack
	var cls [clients]*client
	var prefill [][][]byte
	shutdown := func() {
		if st == nil {
			return
		}
		for _, c := range cls {
			if c != nil {
				c.close()
			}
		}
		st.close()
		st = nil
	}
	defer shutdown()
	for s := 0; s < opts.setups; s++ {
		shutdown()
		start := time.Now()
		var err error
		if st, err = boot(in.specs()); err != nil {
			return res, fmt.Errorf("boot: %w", err)
		}
		for c := range cls {
			cls[c] = newClient(st.base)
		}
		if opts.scrape && s == opts.setups-1 {
			if res.scrapes[0], err = cls[0].scrape(); err != nil {
				return res, err
			}
		}
		bodies, err := runSetup(in, cls)
		if err != nil {
			return res, err
		}
		res.setup = append(res.setup, time.Since(start))
		if prefill == nil {
			prefill = bodies
		} else if k, ok := sameBodies(prefill, bodies); !ok {
			res.fail("setup %d answered %s item %d with other bytes than setup 0", s, in.nets[k.net].spec.Name, k.item)
		}
	}
	var states [clients]*clientState
	for c := range states {
		// Setup's answers are version 0's, so every timed read of a
		// prefilled entry must repeat them byte for byte.
		states[c] = &clientState{seen: map[verKey][]byte{}}
		for j := range prefill {
			for i, b := range prefill[j] {
				if b != nil {
					states[c].seen[verKey{net: j, item: i}] = b
				}
			}
		}
	}
	startGun := make(chan struct{})
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if opts.tr != nil {
				tr = opts.tr[c]
			}
			<-startGun
			runOps(in, cls[c], in.timed[c], states[c], tr)
		}(c)
	}
	runtime.GC()
	t0 := time.Now()
	close(startGun)
	wg.Wait()
	res.wall = time.Since(t0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	var err error
	if opts.scrape {
		if res.scrapes[1], err = cls[0].scrape(); err != nil {
			return res, err
		}
	}
	if opts.probe != nil {
		if err := opts.probe(st); err != nil {
			return res, err
		}
	}
	seen := map[verKey][]byte{}
	for _, cs := range states {
		res.reads = append(res.reads, cs.reads...)
		res.updates = append(res.updates, cs.updates...)
		res.attempted += cs.attempted
		res.failed += cs.res.failed
		if res.firstErr == "" {
			res.firstErr = cs.res.firstErr
		}
		for k, b := range cs.seen {
			if prev, ok := seen[k]; ok && !bytes.Equal(prev, b) {
				res.fail("%s item %d at version %d: the two clients got different bytes", in.nets[k.net].spec.Name, k.item, k.ver)
			}
			seen[k] = b
		}
	}
	if opts.verify {
		verifyCold(in, seen, &res)
	}
	return res, nil
}

// runSetup sends the setup reads from every client at once and returns
// the answers, by network and request item.
func runSetup(in *inputs, cls [clients]*client) ([][][]byte, error) {
	bodies := make([][][]byte, len(in.nets))
	for j, ni := range in.nets {
		bodies[j] = make([][]byte, len(ni.reqs))
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, o := range in.setup[c] {
				ni := in.nets[o.net]
				status, _, err := cls[c].do(http.MethodPost, "/v1/evaluate", ni.bodies[o.item])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, cls[c].buf.Bytes())
				}
				if err != nil {
					errs[c] = fmt.Errorf("setup read of %s: %w", ni.spec.Name, err)
					return
				}
				bodies[o.net][o.item] = bytes.Clone(cls[c].buf.Bytes())
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// sameBodies reports whether two setups answered alike, and where not.
func sameBodies(a, b [][][]byte) (verKey, bool) {
	for j := range a {
		for i := range a[j] {
			if !bytes.Equal(a[j][i], b[j][i]) {
				return verKey{net: j, item: i}, false
			}
		}
	}
	return verKey{}, true
}

// runOps sends ops in a closed loop: each operation starts when the one
// before it has been answered and checked.
func runOps(in *inputs, cl *client, ops []op, cs *clientState, tr *tracer) {
	for i, o := range ops {
		ni := in.nets[o.net]
		cs.attempted++
		sp := 0
		if tr != nil {
			sp = tr.begin(opSpanName[o.kind], 0, i)
		}
		t0 := time.Now()
		if o.kind == opPatch {
			status, _, err := cl.do(http.MethodPatch, "/v1/networks/"+ni.spec.Name, ni.deltaBodies[o.item])
			d := time.Since(t0)
			if tr != nil {
				tr.end(sp)
			}
			var ur struct {
				Version uint64 `json:"version"`
			}
			switch {
			case err != nil:
				cs.res.fail("PATCH %s: %v", ni.spec.Name, err)
			case status != http.StatusOK:
				cs.res.fail("PATCH %s: status %d: %s", ni.spec.Name, status, cl.buf.Bytes())
			case json.Unmarshal(cl.buf.Bytes(), &ur) != nil || ur.Version != ni.snaps[o.item].Version():
				cs.res.fail("PATCH %s delta %d: answered %s, want version %d", ni.spec.Name, o.item, cl.buf.Bytes(), ni.snaps[o.item].Version())
			default:
				cs.updates = append(cs.updates, d)
			}
			continue
		}
		status, verHdr, err := cl.do(http.MethodPost, "/v1/evaluate", ni.bodies[o.item])
		d := time.Since(t0)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			cs.res.fail("read %s: %v", ni.spec.Name, err)
			continue
		}
		if status != http.StatusOK {
			cs.res.fail("read %s: status %d: %s", ni.spec.Name, status, cl.buf.Bytes())
			continue
		}
		ver, err := strconv.ParseUint(verHdr, 10, 64)
		if err != nil {
			cs.res.fail("read %s: bad X-Wmcs-Version %q", ni.spec.Name, verHdr)
			continue
		}
		k := verKey{net: o.net, ver: ver, item: o.item}
		if prev, ok := cs.seen[k]; !ok {
			cs.seen[k] = bytes.Clone(cl.buf.Bytes())
		} else if !bytes.Equal(prev, cl.buf.Bytes()) {
			cs.res.fail("read %s item %d at version %d: bytes differ from an earlier answer", ni.spec.Name, o.item, ver)
			continue
		}
		cs.reads = append(cs.reads, d)
	}
}

var opSpanName = [...]string{opRead: "http.evaluate", opPatch: "http.patch"}

// verifyCold compares every distinct answer with the bytes a fresh
// query.Evaluator computes for the network version the server named.
func verifyCold(in *inputs, seen map[verKey][]byte, res *passResult) {
	keys := make([]verKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.net != y.net {
			return x.net < y.net
		}
		if x.ver != y.ver {
			return x.ver < y.ver
		}
		return x.item < y.item
	})
	type evKey struct {
		net int
		ver uint64
	}
	evs := map[evKey]*query.Evaluator{}
	for _, k := range keys {
		ek := evKey{k.net, k.ver}
		if _, ok := evs[ek]; ok {
			continue
		}
		if nw := in.nets[k.net].atVersion(k.ver); nw != nil {
			evs[ek] = query.NewEvaluator(nw)
		}
	}
	var mu sync.Mutex
	parallelEach(len(keys), func(i int) {
		k := keys[i]
		ni := in.nets[k.net]
		ev := evs[evKey{k.net, k.ver}]
		var want []byte
		err := fmt.Errorf("no network state has version %d", k.ver)
		if ev != nil {
			want, err = coldBytes(ev, ni, ni.reqs[k.item])
		}
		if err == nil && bytes.Equal(want, seen[k]) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.fail("verifying %s item %d at version %d: %v", ni.spec.Name, k.item, k.ver, err)
		} else {
			res.fail("%s item %d at version %d: served bytes differ from a cold evaluation", ni.spec.Name, k.item, k.ver)
		}
	})
}

// atVersion returns the network state with the given version, or nil.
func (ni *netInput) atVersion(ver uint64) *wireless.Network {
	if ver == ni.nw.Version() {
		return ni.nw
	}
	for k := len(ni.snaps) - 1; k >= 0; k-- {
		if ni.snaps[k].Version() == ver {
			return ni.snaps[k]
		}
	}
	return nil
}

// coldBytes is the response the server must send for req, computed the
// way the admission dispatcher computes it.
func coldBytes(ev *query.Evaluator, ni *netInput, req serve.EvalRequest) ([]byte, error) {
	c, err := serve.Canonicalize(req, ni.nw.N(), ni.nw.Source())
	if err != nil {
		return nil, err
	}
	if c.Approx != nil {
		o, cert, err := ev.EvaluateApprox(c.Mech, nil, c.Profile, *c.Approx)
		if err != nil {
			return nil, err
		}
		return serve.EncodeOutcomeCert(ni.spec.Name, c.Mech, o, &cert)
	}
	o, err := ev.Evaluate(c.Mech, nil, c.Profile)
	if err != nil {
		return nil, err
	}
	return serve.EncodeOutcome(ni.spec.Name, c.Mech, o)
}

// parallelEach calls fn(0..n-1) on one goroutine per client and returns
// when all calls have.
func parallelEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
