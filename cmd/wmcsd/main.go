// Command wmcsd is the wireless multicast cost-sharing daemon: it hosts
// a registry of named networks (each backed by one shared query
// evaluator) and serves per-receiver-set cost-sharing queries over HTTP
// with canonicalized result caching, singleflight coalescing and a bound
// of -parallel-eval concurrent evaluations, GOMAXPROCS unless set (see
// DESIGN.md §8).
//
// Usage:
//
//	wmcsd                                  # demo networks on :8571
//	wmcsd -addr :9000 -manifest nets.json  # a startup manifest of scenario specs
//	wmcsd -cache 65536 -parallel-eval 1    # bigger cache, one evaluation at a time
//	wmcsd -log json -slow 100ms            # JSON logs, 100ms slow threshold
//	wmcsd -pprof 127.0.0.1:6060            # net/http/pprof on a separate loopback listener
//
// Endpoints: /healthz, /statsz, /metricsz, /debugz/slow, /v1/networks,
// /v1/evaluate, /v1/batch. Logs are structured (log/slog; -log picks
// text or JSON): startup/lifecycle records from this file plus one
// request-summary record per non-2xx or slow request from the serving
// layer. SIGINT/SIGTERM drain connections and exit 0 after logging
// "clean shutdown" — CI asserts that exact phrase.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wmcs/internal/cliutil"
	"wmcs/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8571", "listen address")
		manifest   = flag.String("manifest", "", "startup manifest: JSON array of scenario specs (default: a demo set)")
		cache      = flag.Int("cache", serve.DefaultCacheCapacity, "result-cache capacity in entries (0 disables)")
		parEval    = flag.Int("parallel-eval", 0, "evaluation width: wireless-bb spider-oracle scans and concurrent evaluations (0 = GOMAXPROCS, logged at boot); the bytes served are the same at every width")
		pprof      = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
		logFormat  = flag.String("log", "text", "log format: text or json")
		slow       = flag.Duration("slow", serve.DefaultSlowRequest, "slow-request threshold: OK responses at or above it are logged and counted (negative disables)")
		slowTraces = flag.Int("slowtraces", serve.DefaultSlowTraces, "how many slowest traces /debugz/slow retains (negative disables)")
	)
	cliutil.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		cliutil.Die("-log must be text or json, got %q", *logFormat)
	}
	logger := slog.New(handler).With("component", "wmcsd")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *pprof != "" {
		// A separate listener keeps the profiling surface off the public
		// API address entirely: the v1 mux never routes /debug/pprof, and
		// the debug mux never sees query traffic. net/http/pprof registers
		// on http.DefaultServeMux as a side effect of the import.
		go func() {
			logger.Info("pprof listener", "url", "http://"+*pprof+"/debug/pprof/")
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Resolve the width before any network is registered: the registry
	// builds each network's evaluators with it. It never changes a byte
	// served, only latency, but a deployment's width should still be
	// reconstructible from its boot log.
	width, auto := cliutil.Width("-parallel-eval", *parEval)
	switch {
	case auto:
		logger.Info("parallel evaluation enabled", "width", width, "resolved", "auto (GOMAXPROCS)")
	case width > 1:
		logger.Info("parallel evaluation enabled", "width", width, "resolved", "explicit")
	}

	reg := serve.NewRegistry()
	reg.SetParallel(width)
	if *manifest != "" {
		f, err := os.Open(*manifest)
		if err != nil {
			cliutil.Die("%v", err)
		}
		n, err := reg.LoadManifest(f)
		f.Close()
		if err != nil {
			cliutil.Die("%v", err)
		}
		logger.Info("loaded manifest", "networks", n, "path", *manifest)
	} else {
		for _, sp := range serve.DefaultSpecs() {
			if err := reg.RegisterSpec(sp); err != nil {
				cliutil.Die("%v", err)
			}
		}
		logger.Info("no -manifest, hosting demo networks", "networks", reg.Len())
	}
	for _, e := range reg.Entries() {
		logger.Info("network", "name", e.Name, "stations", e.Net.N(), "source", e.Net.Source())
	}

	// The flag speaks the cache's own contract (0 disables, matching
	// serve.NewCache); Options uses 0 for "unset", so translate. The
	// same convention covers -slow and -slowtraces.
	cacheCap := *cache
	if cacheCap == 0 {
		cacheCap = -1
	}
	slowThreshold := *slow
	if slowThreshold == 0 {
		slowThreshold = -1
	}
	ringSize := *slowTraces
	if ringSize == 0 {
		ringSize = -1
	}
	srv := serve.NewServer(reg, serve.Options{
		CacheCapacity: cacheCap,
		Logger:        logger,
		SlowRequest:   slowThreshold,
		SlowTraces:    ringSize,
	})
	httpSrv := newHTTPServer(*addr, srv)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		srv.Close()
		if err != nil {
			// CI greps for "clean shutdown"; a timed-out drain must not
			// produce it.
			fatal("shutdown incomplete", "err", err)
		}
		logger.Info("clean shutdown")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			fatal("listener failed", "err", err)
		}
	}
}

// Connection timeouts. A client that trickles its headers or idles on a
// kept-alive connection holds that connection and its goroutine only
// this long. There is deliberately no read or write deadline on the
// request itself: a write deadline would cut off a legitimately long
// wireless-bb evaluation, and bounding what one request may cost is the
// admission layer's job, not the transport's.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the daemon's listener with its connection
// timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
