package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/gen"
	"relive/internal/ltl"
)

// infA returns a Büchi automaton for "infinitely many a" over {a,b} —
// an ω-language that is NOT limit closed (every finite word is a prefix,
// yet b^ω is not in the language).
func infA(ab *alphabet.Alphabet) *buchi.Buchi {
	b := buchi.New(ab)
	q0 := b.AddState(false)
	q1 := b.AddState(true)
	sa, _ := ab.Lookup("a")
	sb, _ := ab.Lookup("b")
	b.AddTransition(q0, sb, q0)
	b.AddTransition(q0, sa, q1)
	b.AddTransition(q1, sa, q1)
	b.AddTransition(q1, sb, q0)
	b.SetInitial(q0)
	return b
}

func TestRelativeLivenessOmegaOnNonLimitClosed(t *testing.T) {
	ab := gen.Letters(2)
	l := infA(ab)
	lab := ltl.Canonical(ab)

	// □◇b relative liveness of "inf many a": every prefix extends to a
	// word with both letters infinitely often.
	rl, err := RelativeLivenessOmega(context.Background(), l, FromFormula(ltl.MustParse("G F b"), lab))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Errorf("□◇b not RL of inf-a (prefix %s)", rl.BadPrefix.String(ab))
	}
	// "first letter is b": prefixes starting with a cannot be repaired.
	rl, err = RelativeLivenessOmega(context.Background(), l, FromFormula(ltl.MustParse("b"), lab))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Holds {
		t.Error("'first letter b' reported RL of inf-a")
	}
	if len(rl.BadPrefix) == 0 {
		t.Error("missing bad prefix")
	}
}

func TestRelativeSafetyOmega(t *testing.T) {
	ab := gen.Letters(2)
	l := infA(ab)
	lab := ltl.Canonical(ab)
	// "first letter is b" IS a relative safety property of inf-a: a
	// violating word has the prefix "a", whose every extension violates.
	rs, err := RelativeSafetyOmega(context.Background(), l, FromFormula(ltl.MustParse("b"), lab))
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Holds {
		t.Errorf("'first letter b' not relative safety of inf-a (violation %s)",
			rs.Violation.String(ab))
	}
	// □◇b is not: violations (like (ab...a b^k a...)→ actually words
	// with finitely many b) are limits of satisfying words.
	rs, err = RelativeSafetyOmega(context.Background(), l, FromFormula(ltl.MustParse("G F b"), lab))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Holds {
		t.Error("□◇b reported relative safety of inf-a")
	}
}

func TestSatisfiesOmegaAndConjunction(t *testing.T) {
	ab := gen.Letters(2)
	l := infA(ab)
	lab := ltl.Canonical(ab)
	// inf-a ⊨ □◇a trivially.
	sat, err := SatisfiesOmega(l, FromFormula(ltl.MustParse("G F a"), lab))
	if err != nil {
		t.Fatal(err)
	}
	if !sat.Holds {
		t.Error("inf-a does not satisfy □◇a?")
	}
	sat, err = SatisfiesOmega(l, FromFormula(ltl.MustParse("G F b"), lab))
	if err != nil {
		t.Fatal(err)
	}
	if sat.Holds {
		t.Error("inf-a satisfies □◇b?")
	}
	if !l.AcceptsLasso(sat.Counterexample) {
		t.Error("counterexample not in the language")
	}
}

// TestQuickTheorem47Omega: the conjunction theorem holds for arbitrary
// ω-regular languages, not just limit-closed ones.
func TestQuickTheorem47Omega(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	ab := gen.Letters(2)
	lab := ltl.Canonical(ab)
	atoms := ab.Names()
	for trial := 0; trial < 40; trial++ {
		l := randomOmega(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), lab)
		sat, err := SatisfiesOmega(l, p)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := RelativeLivenessOmega(context.Background(), l, p)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RelativeSafetyOmega(context.Background(), l, p)
		if err != nil {
			t.Fatal(err)
		}
		if sat.Holds != (rl.Holds && rs.Holds) {
			t.Fatalf("trial %d: Theorem 4.7 fails on ω-language: sat=%v rl=%v rs=%v",
				trial, sat.Holds, rl.Holds, rs.Holds)
		}
	}
}

func randomOmega(rng *rand.Rand, ab *alphabet.Alphabet, n int) *buchi.Buchi {
	b := buchi.New(ab)
	for i := 0; i < n; i++ {
		b.AddState(rng.Float64() < 0.4)
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.5 {
					b.AddTransition(buchi.State(i), sym, buchi.State(rng.Intn(n)))
				}
			}
		}
	}
	b.SetInitial(0)
	return b
}

func TestIsLimitClosed(t *testing.T) {
	ab := gen.Letters(2)
	if ok, l, err := IsLimitClosed(context.Background(), infA(ab)); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("inf-a reported limit closed")
	} else if !l.Valid() {
		t.Error("missing witness for non-limit-closure")
	}
	// Σ^ω is limit closed.
	if ok, _, err := IsLimitClosed(context.Background(), buchi.UniversalAutomaton(ab)); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Error("Σ^ω reported not limit closed")
	}
	// The empty language is limit closed.
	if ok, _, err := IsLimitClosed(context.Background(), buchi.New(ab)); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Error("∅ reported not limit closed")
	}
}

// SatisfiesOmega decides L_ω(lomega) ⊆ P.
func SatisfiesOmega(lomega *buchi.Buchi, p Property) (SatisfactionResult, error) {
	notP, err := p.NegationAutomaton(nil, lomega.Alphabet())
	if err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction (ω): %w", err)
	}
	l, found, _ := buchi.IntersectLassoCtx(nil, lomega, notP)
	if found {
		return SatisfactionResult{Holds: false, Counterexample: l}, nil
	}
	return SatisfactionResult{Holds: true}, nil
}
