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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"wmcs/internal/cliutil"
	"wmcs/internal/experiments"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced trial counts")
		only       = flag.String("only", "", "run a single experiment by id (E1..E15, E15b, A1, A4)")
		parallel   = flag.Int("parallel", 0, "evaluation-engine workers: 1 = serial, 0 = GOMAXPROCS")
		jsonOut    = flag.Bool("json", false, "emit tables as JSON (one object per line)")
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
	workers, _ := cliutil.Width("-parallel", *parallel)
	cfg := experiments.Config{Quick: *quick, Workers: workers}
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
