// Package cliutil centralizes the flag plumbing shared by the wmcs
// commands (wmcs, benchtab, wmcsd, wmcsload): strict argument parsing
// and uniform usage-style error exits. The contract every command keeps
// is: bad input — an unknown flag, a stray positional argument, an
// unknown mechanism/scenario/experiment name — produces a nonzero exit
// and a message pointing at -h, never partial output.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// prog is the invoked command's base name for message prefixes.
func prog() string { return filepath.Base(os.Args[0]) }

// Die prints "<prog>: <message>" plus a pointer to -h on stderr and
// exits 2 — the same code the flag package uses for unknown flags, so
// every bad-input path looks alike to callers and CI.
func Die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog(), fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "run '%s -h' for usage\n", prog())
	os.Exit(2)
}

// Parse wraps flag.Parse and then rejects stray positional arguments:
// the wmcs commands are flag-only, and a forgotten dash (e.g. `wmcs
// suite`) silently running the default action is exactly the partial
// output Die exists to prevent.
func Parse() {
	flag.Parse()
	if flag.NArg() > 0 {
		Die("unexpected argument %q (all options are flags)", flag.Arg(0))
	}
}

// OneOf validates that val is one of the valid names for the given flag
// and returns it; otherwise it dies listing the choices.
func OneOf(flagName, val string, valid []string) string {
	for _, v := range valid {
		if val == v {
			return val
		}
	}
	Die("unknown %s %q (have %s)", flagName, val, strings.Join(valid, ", "))
	return "" // unreachable
}

// Width resolves a width flag: 0 selects GOMAXPROCS (auto reports that,
// so the caller can log the resolved width at boot), N >= 1 is taken as
// given, and any other value dies with the usage pointer.
func Width(flagName string, v int) (width int, auto bool) {
	switch {
	case v == 0:
		return runtime.GOMAXPROCS(0), true
	case v >= 1:
		return v, false
	}
	Die("%s must be 0 (GOMAXPROCS) or >= 1 (got %d)", flagName, v)
	return 0, false // unreachable
}

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty fields.
func SplitList(csv string) []string {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
