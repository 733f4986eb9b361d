// Command benchtab regenerates every table of the simulated evaluation
// (experiments E1–E14 and the ablations of DESIGN.md §4), the
// reproduction's stand-in for the paper's figures.
//
// Usage:
//
//	benchtab                 # full suite (tens of seconds, parallel)
//	benchtab -quick          # reduced trial counts (seconds)
//	benchtab -only E9        # a single experiment
//	benchtab -parallel 1     # force a serial run (byte-identical output)
//	benchtab -json           # one JSON table per line
//	benchtab -only E6 -cpuprofile e6.pprof   # profile the hot path
//	benchtab -quick -timings BENCH.json      # per-experiment wall-clock JSON (the CI perf trajectory)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"wmcs/internal/cliutil"
	"wmcs/internal/experiments"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced trial counts")
		only       = flag.String("only", "", "run a single experiment by id (E1..E15, E15b, A1, A4)")
		parallel   = flag.Int("parallel", 0, "evaluation-engine workers: 1 = serial, 0 = GOMAXPROCS")
		jsonOut    = flag.Bool("json", false, "emit tables as JSON (one object per line)")
		timings    = flag.String("timings", "", "also write per-experiment wall-clock timings (JSON) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	cliutil.Parse()
	var onlyExp *experiments.Experiment
	if *only != "" {
		if onlyExp = experiments.Lookup(*only); onlyExp == nil {
			ids := make([]string, len(experiments.All))
			for i, e := range experiments.All {
				ids[i] = e.ID
			}
			cliutil.OneOf("-only", *only, ids)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is clean
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}
	cfg := experiments.Config{Quick: *quick, Workers: *parallel}
	if *timings != "" {
		// Timings mode runs the suite experiment by experiment so each
		// table's wall clock is attributable — the bytes printed are
		// identical to RunAll's (tables are deterministic and rendered
		// in registry order), only the scheduling differs.
		if err := runTimed(onlyExp, cfg, *jsonOut, *timings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if onlyExp != nil {
		tab := onlyExp.Run(cfg)
		if *jsonOut {
			if err := tab.RenderJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		tab.Render(os.Stdout)
		return
	}
	if *jsonOut {
		if err := experiments.RunAllJSON(os.Stdout, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	experiments.RunAll(os.Stdout, cfg)
}

// expTiming is one experiment's wall clock in the timings document.
type expTiming struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Rows   int     `json:"rows"`
}

// timingDoc is the -timings JSON: the repo's benchmark trajectory
// artifact (CI emits one per PR as BENCH_pr<N>.json).
type timingDoc struct {
	Schema      string      `json:"schema"`
	Quick       bool        `json:"quick"`
	Workers     int         `json:"workers"`
	Experiments []expTiming `json:"experiments"`
	TotalMS     float64     `json:"total_ms"`
}

// runTimed renders the selected experiments (all of them when only is
// nil) while timing each, then writes the timings document to path.
func runTimed(only *experiments.Experiment, cfg experiments.Config, jsonOut bool, path string) error {
	exps := experiments.All
	if only != nil {
		exps = []experiments.Experiment{*only}
	}
	doc := timingDoc{Schema: "wmcs-benchtab-timings/1", Quick: cfg.Quick, Workers: cfg.Workers}
	total := time.Now()
	for _, e := range exps {
		t0 := time.Now()
		tab := e.Run(cfg)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		doc.Experiments = append(doc.Experiments, expTiming{ID: e.ID, Name: e.Name, WallMS: ms, Rows: len(tab.Rows)})
		if jsonOut {
			if err := tab.RenderJSON(os.Stdout); err != nil {
				return err
			}
		} else {
			tab.Render(os.Stdout)
		}
	}
	doc.TotalMS = float64(time.Since(total).Nanoseconds()) / 1e6
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
