package cliutil

import (
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a,b,c", []string{"a", "b", "c"}},
		{" a , ,b,", []string{"a", "b"}},
		{"", nil},
		{"solo", []string{"solo"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestOneOfAccepts(t *testing.T) {
	// The rejection path exits the process, so only the accept path is
	// unit-testable; cmd behavior is covered by the CI smoke script.
	if got := OneOf("mech", "b", []string{"a", "b"}); got != "b" {
		t.Fatalf("OneOf returned %q", got)
	}
}

func TestWidthAccepts(t *testing.T) {
	if w, auto := Width("-w", 0); w != runtime.GOMAXPROCS(0) || !auto {
		t.Fatalf("Width(0) = %d, %v; want GOMAXPROCS, auto", w, auto)
	}
	for _, v := range []int{1, 2, 16} {
		if w, auto := Width("-w", v); w != v || auto {
			t.Fatalf("Width(%d) = %d, %v; want %d, explicit", v, w, auto, v)
		}
	}
}

// TestWidthRejects runs the rejection path in a child process (Die
// exits): a negative width must exit 2 with the usage pointer.
func TestWidthRejects(t *testing.T) {
	if v := os.Getenv("CLIUTIL_WIDTH_CHILD"); v != "" {
		Width("-parallel-eval", -2)
		os.Exit(0) // not reached when Width dies
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWidthRejects$")
	cmd.Env = append(os.Environ(), "CLIUTIL_WIDTH_CHILD=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("child exited with %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-parallel-eval must be 0 (GOMAXPROCS) or >= 1 (got -2)") || !strings.Contains(string(out), "for usage") {
		t.Fatalf("missing message or usage pointer:\n%s", out)
	}
}
