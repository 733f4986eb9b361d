package wmcs

// The golden-bytes check. Every other byte check compares two paths
// inside one commit (replay/fresh run, width 1/N, warm/cold, server/cold
// evaluator), so a change that moves the exact path the same way
// everywhere passes all of them. Three committed artifacts pin the
// bytes and the counts themselves, and a change that moves them shows
// the diff in review:
//
//   - testdata/golden/benchtab_quick.txt, the rendered `benchtab -quick`
//     suite (CI cmps a fresh render against it);
//   - testdata/golden/served_corpus.txt, the served-bytes corpus that
//     TestServedCorpus renders and compares;
//   - testdata/golden/count_ledger.txt, the allocation counts that
//     TestCountLedger renders and compares (ledger_test.go).
//
// One command regenerates all three:
//
//	go run ./cmd/benchtab -quick > testdata/golden/benchtab_quick.txt && go test -run '^(TestServedCorpus|TestCountLedger)$' -update .
//
// Go may fuse a*b+c into one rounding on targets with FMA (arm64, or
// amd64 built with GOAMD64=v3 and up), which moves last bits. The corpus
// and the ledger are pinned to CI's target, amd64 at the default
// GOAMD64=v1 (golden_target_test.go); every other build skips them.

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

var updateGolden = flag.Bool("update", false, "rewrite "+servedCorpusPath+" and "+countLedgerPath+" from this build")

const servedCorpusPath = "testdata/golden/served_corpus.txt"

// corpusSpecs are the corpus networks: every scenario family at α = 2,
// and each Euclidean family again at α = 1 (the alpha1 mechanisms'
// domain), at n = 8 and n = 12.
func corpusSpecs() []instances.Spec {
	var specs []instances.Spec
	for _, n := range []int{8, 12} {
		for si, sc := range instances.Scenarios() {
			alphas := []float64{2}
			if sc.Euclidean {
				alphas = append(alphas, 1)
			}
			for _, a := range alphas {
				specs = append(specs, instances.Spec{
					Name:     fmt.Sprintf("%s-a%g-n%d", sc.Name, a, n),
					Scenario: sc.Name, N: n, Alpha: a, Seed: int64(100*n + si),
				})
			}
		}
	}
	return specs
}

// corpusApprox is the sampled-tier spec the corpus pins: each mechanism
// whose descriptor declares Approx answers its first request again with
// it.
var corpusApprox = serve.ApproxWire{Samples: 256, Delta: 0.05, Seed: 1}

// corpusRequests draws the corpus requests of one network: for each
// mechanism the network supports, in registry order, one cell of three
// (R, u) from the uniform workload. TestServedCorpus serves them and
// TestCountLedger counts them.
func corpusRequests(sp instances.Spec, nw *wireless.Network) ([][]serve.EvalRequest, error) {
	uniform, err := instances.WorkloadByName("uniform")
	if err != nil {
		return nil, err
	}
	var cells [][]serve.EvalRequest
	for mi, name := range mechreg.SupportedNames(nw) {
		smp := uniform.New(engine.RNG(sp.Seed, mi), nw, instances.WorkloadOptions{})
		cell := make([]serve.EvalRequest, 3)
		for k := range cell {
			q := smp.Next()
			cell[k] = serve.EvalRequest{Network: sp.Name, Mech: name, R: q.R, Profile: q.U}
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// renderServedCorpus renders one line per query: the network, its
// version, the canonical key and the response bytes, computed as the
// server computes a cache miss (serve.Canonicalize, then
// query.Evaluator, then serve.EncodeOutcomeCert). Per network, every
// supported registry mechanism answers its corpusRequests cell, and a
// mechanism with a sampled tier answers the first of them once more
// under corpusApprox. The requests run at version 0 and again after one
// PATCH: the first delta of the network's churn model, applied through
// VersionedEvaluator.Update.
func renderServedCorpus() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("# network version key response — regenerate: go test -run '^TestServedCorpus$' -update .\n")
	for _, sp := range corpusSpecs() {
		nw, err := sp.Build()
		if err != nil {
			return nil, err
		}
		cells, err := corpusRequests(sp, nw)
		if err != nil {
			return nil, err
		}
		var reqs []serve.EvalRequest
		for _, cell := range cells {
			reqs = append(reqs, cell...)
			d, err := mechreg.ByName(cell[0].Mech)
			if err != nil {
				return nil, err
			}
			if d.Approx {
				req := cell[0]
				req.Approx = &corpusApprox
				reqs = append(reqs, req)
			}
		}
		ve := query.NewVersioned(nw)
		render := func() error {
			cur := ve.Current()
			for _, req := range reqs {
				c, err := serve.Canonicalize(req, nw.N(), nw.Source())
				if err != nil {
					return err
				}
				resp := cur.Ev.EvaluateOne(query.Request{Mech: c.Mech, Profile: c.Profile, Approx: c.Approx})
				if resp.Err != nil {
					return fmt.Errorf("%s %s: %w", sp.Name, c.Mech, resp.Err)
				}
				body, err := serve.EncodeOutcomeCert(sp.Name, c.Mech, resp.Outcome, resp.Cert)
				if err != nil {
					return err
				}
				fmt.Fprintf(&buf, "%s v%d %q %s\n", sp.Name, cur.Version, c.Key, body)
			}
			return nil
		}
		if err := render(); err != nil {
			return nil, err
		}
		delta := instances.ChurnModelFor(nw).New(rand.New(rand.NewSource(sp.Seed)), nw, instances.ChurnOptions{}).Next()
		if _, err := ve.Update(delta.Apply); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		if err := render(); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// TestServedCorpus renders the served-bytes corpus and requires it to
// equal the committed file byte for byte; -update rewrites the file.
func TestServedCorpus(t *testing.T) {
	if !goldenTarget {
		t.Skipf("the corpus is pinned to amd64 at GOAMD64=v1, where Go never fuses multiply-adds; this build is %s with other float rounding", runtime.GOARCH)
	}
	got, err := renderServedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, servedCorpusPath, got)
}

// checkGolden requires got to equal the committed file at path byte for
// byte, naming the first differing lines; -update rewrites the file
// instead.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	const shown = 40
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] == wl[i] {
			continue
		}
		if diffs++; diffs <= shown {
			t.Errorf("%s line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	if diffs > shown {
		t.Errorf("%s: %d more lines differ", path, diffs-shown)
	}
	if len(gl) != len(wl) {
		t.Errorf("rendered %d lines, %s has %d", len(gl), path, len(wl))
	}
	t.FailNow()
}
