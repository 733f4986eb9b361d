package main

import (
	"bytes"
	"testing"
)

// sent lists every request body and PATCH delta a run sends, in the
// order each client sends them.
func sent(in *inputs) [][]byte {
	var out [][]byte
	add := func(ops []op) {
		for _, o := range ops {
			ni := in.nets[o.net]
			if o.kind == opPatch {
				out = append(out, ni.deltaBodies[o.item])
			} else {
				out = append(out, ni.bodies[o.item])
			}
		}
	}
	for c := 0; c < clients; c++ {
		add(in.setup[c])
		add(in.timed[c])
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			gen := func(seed int64) [][]byte {
				in, err := generate(w, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				return sent(in)
			}
			a, b, c := gen(7), gen(7), gen(8)
			if len(a) != len(b) {
				t.Fatalf("seed 7 twice: %d and %d operations", len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("seed 7 twice: operation %d differs:\n%s\n%s", i, a[i], b[i])
				}
			}
			differ := len(a) != len(c)
			for i := 0; !differ && i < len(a); i++ {
				differ = !bytes.Equal(a[i], c[i])
			}
			if !differ {
				t.Fatal("seeds 7 and 8 send the same operations")
			}
		})
	}
}

func TestPatchesDifferBetweenSeeds(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		patched := 0
		for j, ni := range a.nets {
			if len(ni.deltaBodies) == 0 {
				continue
			}
			patched++
			if bytes.Equal(ni.deltaBodies[0], b.nets[j].deltaBodies[0]) {
				t.Errorf("%s: seeds 7 and 8 draw the same first delta for %s", w.name, ni.spec.Name)
			}
		}
		if patched == 0 {
			t.Errorf("%s: no network is PATCHed", w.name)
		}
	}
}

func TestColdComputeRequestsAreDistinct(t *testing.T) {
	w, err := workloadByName("cold-compute")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for c := range in.timed {
		for _, ops := range [][]op{in.setup[c], in.timed[c]} {
			for _, o := range ops {
				if o.kind != opRead {
					continue
				}
				b := in.nets[o.net].bodies[o.item]
				if seen[string(b)] {
					t.Fatalf("request sent twice: %s", b)
				}
				seen[string(b)] = true
			}
		}
	}
}

func TestMixIsTheSameForEverySeed(t *testing.T) {
	for _, w := range workloads {
		perNet := func(seed int64) []int {
			in, err := generate(w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, len(in.nets))
			for c := range in.timed {
				for _, o := range in.timed[c] {
					counts[o.net]++
				}
			}
			return counts
		}
		a, b := perNet(1), perNet(2)
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("%s: network %d gets %d operations with seed 1 and %d with seed 2", w.name, j, a[j], b[j])
			}
		}
	}
}
