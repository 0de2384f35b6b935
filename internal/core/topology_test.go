package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/gen"
)

// TestQuickTopologicalRoutesAgree cross-validates the Lemma 4.9/4.10
// topological checkers against the Lemma 4.3/4.4 characterizations on
// random systems and properties.
func TestQuickTopologicalRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ab := gen.Letters(2)
	atoms := ab.Names()
	for trial := 0; trial < 40; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), nil)

		rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		rlTop, err := RelativeLivenessTopological(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if rl.Holds != rlTop.Holds {
			t.Fatalf("trial %d: Lemma 4.9 route disagrees: %v vs %v (property %s)\n%s",
				trial, rl.Holds, rlTop.Holds, p, sys.FormatString())
		}

		rs, err := RelativeSafety(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		rsTop, err := RelativeSafetyTopological(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Holds != rsTop.Holds {
			t.Fatalf("trial %d: Lemma 4.10 route disagrees: %v vs %v (property %s)\n%s",
				trial, rs.Holds, rsTop.Holds, p, sys.FormatString())
		}
	}
}
