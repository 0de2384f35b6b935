package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/fairness"
	"relive/internal/gen"
)

// TestQuickTheorem51RandomWide re-checks the Theorem 5.1 synthesis on a
// wider randomized family than TestQuickTheorem51Random: three-letter
// alphabets, larger systems, and both formula and Büchi-automaton
// properties. System behaviors lim(L) are limit closed by construction,
// so every generated instance meets the theorem's limit-closure
// hypothesis; the relative-liveness hypothesis is decided by the core
// pipeline and both directions are exercised:
//
//   - when it holds, the synthesized implementation must have the same
//     behaviors, all its strongly fair runs must satisfy P (checked
//     through AllFairRunsSatisfy on the implementation system),
//     and every bottom SCC must carry a mark;
//   - when it fails, SynthesizeFairImplementation must refuse.
func TestQuickTheorem51RandomWide(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ab := gen.Letters(3)
	atoms := ab.Names()
	synthesized, refused := 0, 0
	for trial := 0; trial < 300 && synthesized < 30; trial++ {
		sys := gen.System(rng, ab, 2+rng.Intn(5), 0.2+0.4*rng.Float64())
		var p Property
		if rng.Float64() < 0.3 {
			cfg := gen.Config{States: 2 + rng.Intn(3), Density: 0.5, AcceptRatio: 0.5}
			p = FromAutomaton(gen.Buchi(rng, cfg, ab))
		} else {
			p = FromFormula(gen.Formula(rng, atoms, 1+rng.Intn(3)), nil)
		}
		rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			continue
		}
		if !rl.Holds {
			if _, err := SynthesizeFairImplementation(context.Background(), sys, p); err == nil {
				t.Fatalf("trial %d: synthesis accepted a non-relative-liveness property %s\nsystem:\n%s",
					trial, p, sys.FormatString())
			}
			refused++
			continue
		}
		if _, err := sys.Trim(); err != nil {
			continue // no behaviors; nothing to synthesize
		}
		fi, err := SynthesizeFairImplementation(context.Background(), sys, p)
		if err != nil {
			t.Fatalf("trial %d: synthesis failed for a relative liveness property: %v\nsystem:\n%s",
				trial, err, sys.FormatString())
		}
		synthesized++

		same, w, err := fi.SameBehaviors(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("trial %d: behaviors differ, witness %s\nsystem:\n%s\nimplementation:\n%s",
				trial, w.String(ab), sys.FormatString(), fi.System.FormatString())
		}
		good, bad, err := AllFairRunsSatisfy(context.Background(), fi.System, p, fairness.Strong)
		if err != nil {
			t.Fatal(err)
		}
		if !good {
			t.Fatalf("trial %d: strongly fair run of the implementation violates %s: %v\nsystem:\n%s\nimplementation:\n%s",
				trial, p, bad, sys.FormatString(), fi.System.FormatString())
		}
		if !fi.BottomSCCsContainMarks() {
			t.Fatalf("trial %d: bottom SCC of the implementation without marks\nimplementation:\n%s",
				trial, fi.System.FormatString())
		}
	}
	if synthesized < 30 {
		t.Fatalf("only %d instances synthesized (want 30); generator too weak", synthesized)
	}
	t.Logf("theorem 5.1 wide sweep: %d synthesized, %d correctly refused", synthesized, refused)
}
