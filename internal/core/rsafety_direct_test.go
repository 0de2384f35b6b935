package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/paper"
)

// TestQuickRSThreeRoutesAgree cross-validates the three relative-safety
// decision procedures: Lemma 4.4, the direct Definition 4.2
// configuration route, and the Cantor-closedness route (Lemma 4.10).
func TestQuickRSThreeRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	ab := gen.Letters(2)
	atoms := ab.Names()
	disagreements := 0
	for trial := 0; trial < 80; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), nil)
		r1, err := RelativeSafety(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RelativeSafetyDirect(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := RelativeSafetyTopological(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Holds != r2.Holds || r1.Holds != r3.Holds {
			disagreements++
			t.Errorf("trial %d: RS routes disagree: lemma4.4=%v direct=%v topo=%v (property %s)\n%s",
				trial, r1.Holds, r2.Holds, r3.Holds, p, sys.FormatString())
		}
		// The direct route's violation witness must be validated too.
		if !r2.Holds {
			beh, err := sys.Behaviors()
			if err != nil {
				t.Fatal(err)
			}
			if !beh.AcceptsLasso(r2.Violation) {
				t.Fatalf("trial %d: direct violation not a behavior", trial)
			}
			pa, err := p.Automaton(ab)
			if err != nil {
				t.Fatal(err)
			}
			if pa.AcceptsLasso(r2.Violation) {
				t.Fatalf("trial %d: direct violation satisfies the property", trial)
			}
		}
		if disagreements > 3 {
			t.Fatal("too many disagreements; aborting")
		}
	}
}

func TestRSDirectOnPaperExamples(t *testing.T) {
	fig2, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)
	rs, err := RelativeSafetyDirect(fig2, p)
	if err != nil {
		t.Fatal(err)
	}
	// □◇result is RL but not satisfied on Fig 2, so by Theorem 4.7 it
	// must not be relative safety.
	if rs.Holds {
		t.Error("□◇result relative safety on Figure 2 per the direct route")
	}
	// A plain safety property: □¬yes after lock... use "request before
	// lock" style: the first action is request or lock — trivially holds;
	// pick one that is a relative safety property: □(¬result ∨ ◇true)
	// is trivial; use instead G !result on Fig3-like... simplest: "a
	// property violated immediately when violated": G !free on Fig 2:
	// once free happens it is violated at a finite point, and every
	// violating behavior has a prefix (ending in free) all of whose
	// extensions stay violating... cont(w·free, L)∩P: P = G¬free: the
	// suffix could avoid free forever, but wx already saw free: wz ∉ P
	// for ALL z. So relative safety holds.
	rsSafe, err := RelativeSafetyDirect(fig2, FromFormula(ltl.MustParse("G !free"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rsSafe.Holds {
		t.Error("□¬free should be a relative safety property of Figure 2")
	}
}
