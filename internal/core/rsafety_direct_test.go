package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/paper"
	"relive/internal/ts"
)

// TestQuickRSThreeRoutesAgree cross-validates the relative-safety
// decision procedures: Lemma 4.4 over the limit-closed behaviors
// (RelativeSafety), the general Lemma 4.4 route that keeps the
// L_ω ∩ lim(pre(L_ω ∩ P)) product (RelativeSafetyOmega on lim(L)), the
// direct Definition 4.2 configuration route, and the Cantor-closedness
// route (Lemma 4.10). One leg draws tiny systems over two letters; the
// other draws the nondeterministic shape the service benchmark sends
// (three letters, up to 24 states, density 0.3), where lim(pre(L∩P))
// and its product with L_ω differ most in size.
func TestQuickRSThreeRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	small := gen.Letters(2)
	for trial := 0; trial < 80; trial++ {
		sys := randomSystem(rng, small, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, small.Names()), nil)
		checkRSRoutesAgree(t, trial, sys, p)
	}
	wide := gen.Letters(3)
	nondet, violations := 0, 0
	for trial := 0; trial < 160; trial++ {
		sys := gen.System(rng, wide, 2+rng.Intn(23), 0.3)
		if _, err := sys.Trim(); err != nil {
			continue // no infinite behavior: every route holds vacuously
		}
		f := randomPropertyFormula(rng, wide.Names())
		if trial%2 == 0 {
			f = ltl.MustParse(coldExactFormulas[trial/2%len(coldExactFormulas)])
		}
		if !checkRSRoutesAgree(t, 1000+trial, sys, FromFormula(f, nil)) {
			violations++
		}
		if !deterministic(sys) {
			nondet++
		}
	}
	t.Logf("generated leg: %d nondeterministic systems, %d violations", nondet, violations)
	if nondet < 60 || violations < 15 {
		t.Errorf("generated leg too tame: %d nondeterministic systems, %d violations", nondet, violations)
	}
}

// coldExactFormulas are the properties the service benchmark's
// cold-exact workload checks against its generated systems.
var coldExactFormulas = []string{
	"G F a", "G (a -> F b)", "F G c", "G F a & G F b",
	"G (b -> X F c)", "(G F a) -> (G F b)", "G (a -> (b U c))", "F G (a | b)",
}

// checkRSRoutesAgree runs the four relative-safety routes on (sys, p),
// fails the test when their verdicts differ or a violation is not a
// behavior outside P, and returns the common verdict.
func checkRSRoutesAgree(t *testing.T, trial int, sys *ts.System, p Property) bool {
	t.Helper()
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
	beh, err := sys.Behaviors()
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RelativeSafetyOmega(context.Background(), beh, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Holds != r2.Holds || r1.Holds != r3.Holds || r1.Holds != r4.Holds {
		t.Fatalf("trial %d: RS routes disagree: lemma4.4=%v omega=%v direct=%v topo=%v (property %s)\n%s",
			trial, r1.Holds, r4.Holds, r2.Holds, r3.Holds, p, sys.FormatString())
	}
	if r1.Holds {
		return true
	}
	pa, err := p.Automaton(nil, sys.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	for route, r := range map[string]SafetyResult{"lemma4.4": r1, "omega": r4, "direct": r2} {
		if !beh.AcceptsLasso(r.Violation) {
			t.Fatalf("trial %d: %s violation %s not a behavior", trial, route, r.Violation.String(sys.Alphabet()))
		}
		if pa.AcceptsLasso(r.Violation) {
			t.Fatalf("trial %d: %s violation %s satisfies the property", trial, route, r.Violation.String(sys.Alphabet()))
		}
	}
	return false
}

// deterministic reports whether no state of sys has two successors
// under one action.
func deterministic(sys *ts.System) bool {
	for st := 0; st < sys.NumStates(); st++ {
		for _, sym := range sys.Alphabet().Symbols() {
			if len(sys.Succ(ts.State(st), sym)) > 1 {
				return false
			}
		}
	}
	return true
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
