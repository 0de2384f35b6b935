package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/gen"
	"relive/internal/paper"
	"relive/internal/word"
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

// TestApproachingSequence materializes density on the Figure 2 example:
// the paper's counterexample computation lock·(request·no·reject)^ω is
// approached arbitrarily closely by behaviors satisfying □◇result.
func TestApproachingSequence(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	ab := sys.Alphabet()
	x := word.MustLasso(
		word.FromNames(ab, paper.ActLock),
		word.FromNames(ab, paper.ActRequest, paper.ActNo, paper.ActReject),
	)
	p := FromFormula(paper.PropertyInfResults(), nil)
	const depth = 8
	ys, err := ApproachingSequence(sys, p, x, depth)
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != depth+1 {
		t.Fatalf("got %d approximants, want %d", len(ys), depth+1)
	}
	beh, err := sys.Behaviors()
	if err != nil {
		t.Fatal(err)
	}
	pa, err := p.Automaton(ab)
	if err != nil {
		t.Fatal(err)
	}
	for k, y := range ys {
		if d := x.CantorDistance(y); d > 1.0/float64(k+1)+1e-12 {
			t.Errorf("approximant %d too far: d = %v > 1/%d", k, d, k+1)
		}
		if !beh.AcceptsLasso(y) {
			t.Errorf("approximant %d is not a behavior", k)
		}
		if !pa.AcceptsLasso(y) {
			t.Errorf("approximant %d does not satisfy □◇result", k)
		}
	}
}

// TestApproachingSequenceFailsWhenNotRL: on Figure 3 the sequence must
// break off at the prefix that kills the property.
func TestApproachingSequenceFailsWhenNotRL(t *testing.T) {
	sys := paper.Fig3System()
	ab := sys.Alphabet()
	x := word.MustLasso(
		word.FromNames(ab, paper.ActLock),
		word.FromNames(ab, paper.ActRequest, paper.ActNo, paper.ActReject),
	)
	p := FromFormula(paper.PropertyInfResults(), nil)
	if _, err := ApproachingSequence(sys, p, x, 8); err == nil {
		t.Error("ApproachingSequence succeeded on a non-relative-liveness property")
	}
}

// TestApproachingSequenceRejectsNonBehavior: x must be a behavior.
func TestApproachingSequenceRejectsNonBehavior(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	ab := sys.Alphabet()
	x := word.MustLasso(nil, word.FromNames(ab, paper.ActResult))
	if _, err := ApproachingSequence(sys, FromFormula(paper.PropertyInfResults(), nil), x, 3); err == nil {
		t.Error("non-behavior accepted")
	}
}
