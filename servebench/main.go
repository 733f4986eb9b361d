// Command servebench is the serving benchmark of wmcsd. It boots the
// serving stack in process with the options wmcsd uses by default,
// drives one seeded closed-loop workload over loopback HTTP from two
// clients, checks every answer byte for byte, and prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics instead. The
// last line of its output is one JSON object with the result.
//
// Workloads:
//
//	hot-read      every read a cache hit: HTTP, decode, Canonicalize, cache lookup
//	cold-compute  every read a fresh query: admission, query and the mechanisms
//	churn         hot reads with PATCHes beside them: updates, purge and refill misses
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --repeat 5 --seconds 10
//
// --repeat runs every workload (or only --workload) in separate
// processes for several rounds, interleaved, and prints each metric's
// median and quartiles.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"wmcs/internal/detorder"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: hot-read | cold-compute | churn")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "run length; a run sends seconds × the workload's nominal rate reads")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run this many interleaved rounds of untraced runs and print medians and quartiles")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var err error
	if *repeat > 0 {
		err = repeatRuns(os.Stdout, *repeat, *wlName, *seed, *seconds)
	} else {
		err = runOnce(os.Stdout, *wlName, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// spanDir is where traced runs write their spans, one file per workload.
const spanDir = ".bench_build/servebench/spans"

// runOnce runs one workload and prints its metrics and the result line.
func runOnce(out io.Writer, name string, seed int64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	in, err := generate(w, seed, seconds)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "servebench %s seed=%d seconds=%d clients=%d trace=%v\n", w.name, seed, seconds, clients, traced)
	printComposition(out, in)

	var ms []metric
	var res passResult
	defs := endToEnd
	if traced {
		ms, res, err = tracedRun(in, out, filepath.Join(spanDir, w.name+".jsonl"))
		defs = perLayer
	} else {
		if res, err = pass(in, passOpts{setups: w.setups, verify: true}); err == nil {
			ms, err = endToEndMetrics(w, res)
		}
	}
	if err != nil {
		return err
	}
	if err := checkComplete(ms, defs); err != nil {
		return err
	}
	render(out, ms)
	fmt.Fprintf(out, "  operations attempted %d, failed %d\n", res.attempted, res.failed)
	if res.firstErr != "" {
		fmt.Fprintf(out, "  first failure: %s\n", res.firstErr)
	}
	line, err := resultLine(res.failed == 0, res.attempted, res.failed, ms)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// printComposition prints requests per network × mechanism and PATCHes
// per churn model.
func printComposition(out io.Writer, in *inputs) {
	reads := map[string]int{}
	patches := map[string]int{}
	count := func(ops []op) {
		for _, o := range ops {
			ni := in.nets[o.net]
			if o.kind == opPatch {
				patches[ni.model]++
				continue
			}
			req := ni.reqs[o.item]
			tier := ""
			if req.Approx != nil {
				tier = " (approx)"
			}
			reads[ni.spec.Name+" × "+req.Mech+tier]++
		}
	}
	for c := range in.timed {
		count(in.timed[c])
	}
	fmt.Fprintln(out, "composition of the timed phase:")
	for _, k := range detorder.Keys(reads) {
		fmt.Fprintf(out, "  reads   %-44s %d\n", k, reads[k])
	}
	for _, k := range detorder.Keys(patches) {
		fmt.Fprintf(out, "  PATCHes %-44s %d\n", k, patches[k])
	}
}

// repeatRuns runs rounds × workloads untraced runs, each in its own
// process with seed base+round. Workloads are interleaved, and each round
// starts with the next one, so slow drift of the machine spreads over
// all of them.
func repeatRuns(out io.Writer, rounds int, only string, base int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{}
	for _, w := range workloads {
		if only == "" || only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		_, err := workloadByName(only)
		return err
	}
	values := map[string]map[string][]float64{}
	for r := 0; r < rounds; r++ {
		for k := range names {
			name := names[(r+k)%len(names)]
			seed := base + int64(r)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, err := parseResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			fmt.Fprintf(out, "round %d %-12s seed %d:", r, name, seed)
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				values[name][d.name] = append(values[name][d.name], v)
				fmt.Fprintf(out, " %s=%.4g", d.name, v)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "%-13s %-16s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		for _, d := range endToEnd {
			vs := values[name][d.name]
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(out, "%-13s %-16s %12.6g %12.6g %12.6g %8.4f\n", name, d.name, q2, q1, q3, spread)
		}
	}
	return nil
}

// runResult is the result line of one run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult reads the last line of a run's output.
func parseResult(stdout []byte) (runResult, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}
