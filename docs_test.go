package wmcs

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"wmcs/internal/mechreg"
)

// TestREADMEMechanismTableInSync regenerates the README's mechanism
// table from the descriptor registry and fails if the embedded copy
// drifted — the registry is the single source of truth for names,
// domains and guarantees, and the docs table is generated output, not a
// second declaration. To update README.md, paste mechreg.MarkdownTable()
// between the mechtable markers.
func TestREADMEMechanismTableInSync(t *testing.T) {
	const begin = "<!-- mechtable:begin"
	const end = "<!-- mechtable:end -->"
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	bi := strings.Index(s, begin)
	ei := strings.Index(s, end)
	if bi < 0 || ei < 0 || ei < bi {
		t.Fatal("README.md has no mechtable markers")
	}
	// The block starts after the marker's line break.
	block := s[bi:ei]
	block = block[strings.Index(block, "\n")+1:]
	want := mechreg.MarkdownTable()
	if block != want {
		t.Fatalf("README mechanism table drifted from the registry.\n-- README --\n%s\n-- registry --\n%s", block, want)
	}
}

// TestFacadeRegistrySurface pins the public registry surface: the name
// constants resolve through ByName and Describe, Mechanisms() mirrors the registry,
// SupportedMechanisms matches the evaluator's accept set, and the typed
// errors surface through the façade.
func TestFacadeRegistrySurface(t *testing.T) {
	names := MechanismNames()
	if len(Mechanisms()) != len(names) {
		t.Fatalf("Mechanisms()/MechanismNames() length mismatch")
	}
	constants := []string{
		MechUniversalShapley, MechUniversalMC, MechWirelessBB,
		MechAlpha1Shapley, MechAlpha1MC, MechLineShapley, MechLineMC, MechJVMoat,
	}
	if len(constants) != len(names) {
		t.Fatalf("exported name constants: %d, registry: %d — keep them in sync", len(constants), len(names))
	}
	for i, c := range constants {
		if c != names[i] {
			t.Errorf("constant %d is %q, registry order says %q", i, c, names[i])
		}
	}
	rng := rand.New(rand.NewSource(4))
	nw := NewEuclideanNetwork(smallCloud(rng, 7, 2), 2, 0) // planar α=2
	supported := SupportedMechanisms(nw)
	if len(supported) != 4 {
		t.Fatalf("planar α=2 supports %v", supported)
	}
	// Facade constructors report registry names.
	if m := UniversalShapley(nw); m.Name() != MechUniversalShapley {
		t.Errorf("UniversalShapley(nw).Name() = %q", m.Name())
	}
	if m := WirelessBudgetBalanced(nw); m.Name() != MechWirelessBB {
		t.Errorf("WirelessBudgetBalanced(nw).Name() = %q", m.Name())
	}
	// Describe returns the registry's descriptor, the one Verify reads.
	if info, err := Describe(MechUniversalMC); err != nil || info.Name != MechUniversalMC {
		t.Errorf("Describe(universal-mc) = %q, %v", info.Name, err)
	}
	if _, err := Describe("bogus"); !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("Describe(bogus) = %v, want ErrUnknownMechanism", err)
	}
	// Typed errors through ByName.
	if _, err := ByName("bogus", nw); !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("ByName(bogus) = %v, want ErrUnknownMechanism", err)
	}
	if _, err := ByName(MechLineShapley, nw); !errors.Is(err, ErrUnsupportedDomain) {
		t.Errorf("ByName(line-shapley, planar) = %v, want ErrUnsupportedDomain", err)
	}
}
