package oracle_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
	"relive/internal/word"
)

// The metamorphic-law table: each theorem of the paper that relates two
// independently computable quantities becomes an executable cross-check
// over randomized inputs. Every law has its own named test so a failure
// points at the broken theorem, not just "the suite".

// lawPair draws a (system, property) pair shaped like the differential
// suite's.
func lawPair(rng *rand.Rand) (*ts.System, core.Property, oracle.Property, string) {
	ab := gen.Letters(2)
	sys := gen.System(rng, ab, 3+rng.Intn(4), 0.25+0.35*rng.Float64())
	if rng.Float64() < 0.7 {
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(3))
		return sys, core.FromFormula(f, nil), oracle.FromFormula(f, nil), f.String()
	}
	b := gen.Buchi(rng, gen.Config{States: 2 + rng.Intn(2), Density: 0.5, AcceptRatio: 0.5}, ab)
	return sys, core.FromAutomaton(b), oracle.FromAutomaton(b), fmt.Sprintf("Büchi\n%s", b)
}

// TestLawTheorem47: L_ω ⊆ P ⟺ (P relative liveness ∧ P relative
// safety). The three verdicts are computed by three separate pipelines,
// so the equivalence is a real cross-check, not a tautology.
func TestLawTheorem47(t *testing.T) {
	rng := newRng(101)
	for trial := 0; trial < 200; trial++ {
		sys, p, _, desc := lawPair(rng)
		sat, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rs, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sat.Holds != (rl.Holds && rs.Holds) {
			t.Fatalf("trial %d: Theorem 4.7 violated: sat=%v rl=%v rs=%v\nproperty: %s\nsystem:\n%s",
				trial, sat.Holds, rl.Holds, rs.Holds, desc, sys.FormatString())
		}
		// The conjunction route must agree with the direct check.
		conj, err := core.SatisfiesViaConjunction(sys, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if conj != sat.Holds {
			t.Fatalf("trial %d: SatisfiesViaConjunction=%v, Satisfies=%v\nproperty: %s\nsystem:\n%s",
				trial, conj, sat.Holds, desc, sys.FormatString())
		}
	}
}

// TestLawLemma43Direct: the Lemma 4.3 prefix-language route of
// core.RelativeLiveness agrees with the Definition 4.1 closure route of
// core.RelativeLivenessDirect, and failing verdicts carry witnesses the
// oracle confirms exactly.
func TestLawLemma43Direct(t *testing.T) {
	rng := newRng(102)
	for trial := 0; trial < 150; trial++ {
		sys, p, op, desc := lawPair(rng)
		lemma, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		direct, err := core.RelativeLivenessDirect(sys, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lemma.Holds != direct.Holds {
			t.Fatalf("trial %d: Lemma 4.3 route %v vs Definition 4.1 route %v\nproperty: %s\nsystem:\n%s",
				trial, lemma.Holds, direct.Holds, desc, sys.FormatString())
		}
		for _, w := range [][]word.Word{{lemma.BadPrefix}, {direct.BadPrefix}} {
			if lemma.Holds || len(w[0]) == 0 {
				continue
			}
			ok, err := oracle.ConfirmBadPrefix(sys, op, w[0])
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !ok {
				t.Fatalf("trial %d: bad prefix %s not confirmed by the oracle\nproperty: %s\nsystem:\n%s",
					trial, w[0].String(sys.Alphabet()), desc, sys.FormatString())
			}
		}
	}
}

// TestLawLemma44Direct: the Lemma 4.4 route of core.RelativeSafety
// agrees with the Definition 4.2 route of core.RelativeSafetyDirect,
// and violations confirm against the oracle's direct Definition 4.2
// check.
func TestLawLemma44Direct(t *testing.T) {
	rng := newRng(103)
	for trial := 0; trial < 150; trial++ {
		sys, p, op, desc := lawPair(rng)
		lemma, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		direct, err := core.RelativeSafetyDirect(sys, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lemma.Holds != direct.Holds {
			t.Fatalf("trial %d: Lemma 4.4 route %v vs Definition 4.2 route %v\nproperty: %s\nsystem:\n%s",
				trial, lemma.Holds, direct.Holds, desc, sys.FormatString())
		}
		for _, v := range []word.Lasso{lemma.Violation, direct.Violation} {
			if lemma.Holds || !v.Valid() {
				continue
			}
			ok, err := oracle.ConfirmSafetyViolation(sys, op, v)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !ok {
				t.Fatalf("trial %d: violation %s not confirmed by the oracle's Definition 4.2 check\nproperty: %s\nsystem:\n%s",
					trial, v.String(sys.Alphabet()), desc, sys.FormatString())
			}
		}
	}
}

// TestLawDef46MachineClosure: relative liveness of P on sys is
// equivalent to machine closure of (L_ω, L_ω ∩ P) per Definition 4.6,
// via core.RelativeLivenessViaMachineClosure; and on random Büchi pairs
// (L_ω, Λ ⊆ L_ω) the oracle's bounded pre(L_ω) ⊆ pre(Λ) enumeration
// agrees with core.MachineClosed asymmetrically.
func TestLawDef46MachineClosure(t *testing.T) {
	rng := newRng(104)
	for trial := 0; trial < 120; trial++ {
		sys, p, op, desc := lawPair(rng)
		rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mc, err := core.RelativeLivenessViaMachineClosure(sys, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rl.Holds != mc.Holds {
			t.Fatalf("trial %d: RelativeLiveness=%v but machine-closure route=%v\nproperty: %s\nsystem:\n%s",
				trial, rl.Holds, mc.Holds, desc, sys.FormatString())
		}
		if !mc.Holds {
			ok, err := oracle.ConfirmBadPrefix(sys, op, mc.BadPrefix)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !ok {
				t.Fatalf("trial %d: machine-closure bad prefix %s not confirmed\nproperty: %s\nsystem:\n%s",
					trial, mc.BadPrefix.String(sys.Alphabet()), desc, sys.FormatString())
			}
		}
	}

	// Büchi-level: Λ = L_ω ∩ B for random B guarantees Λ ⊆ L_ω.
	ab := gen.Letters(2)
	words := gen.Words(ab, 5)
	for trial := 0; trial < 120; trial++ {
		lomega := gen.Buchi(rng, gen.Config{States: 3, Density: 0.5, AcceptRatio: 0.5}, ab)
		other := gen.Buchi(rng, gen.Config{States: 2, Density: 0.5, AcceptRatio: 0.5}, ab)
		lambda, _ := buchi.IntersectCtx(nil, lomega, other)
		got, err := core.MachineClosed(context.Background(), lomega, lambda)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Holds {
			holds, w := oracle.MachineClosed(lomega, lambda, words)
			if !holds {
				t.Fatalf("trial %d: core says machine closed, oracle found bad prefix %s\nL_ω:\n%s\nΛ = L_ω ∩:\n%s",
					trial, w.String(ab), lomega, other)
			}
		} else if !oracle.ConfirmClosureBadPrefix(lomega, lambda, got.BadPrefix) {
			t.Fatalf("trial %d: core bad prefix %s not in pre(L_ω) \\ pre(Λ)\nL_ω:\n%s\nΛ = L_ω ∩:\n%s",
				trial, got.BadPrefix.String(ab), lomega, other)
		}
	}
}

// TestLawTranslationAgreesWithEval pins ltl.TranslateBuchi — the one
// construction the oracle shares with core — against the direct
// EvalLasso semantics, judged by the oracle's own naive lasso
// membership rather than buchi's emptiness machinery.
func TestLawTranslationAgreesWithEval(t *testing.T) {
	rng := newRng(105)
	ab := gen.Letters(2)
	lab := ltl.Canonical(ab)
	for trial := 0; trial < 150; trial++ {
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(3))
		b, _ := ltl.TranslateBuchi(nil, f, lab)
		for i := 0; i < 12; i++ {
			l := gen.Lasso(rng, ab, 2, 3)
			want, err := ltl.EvalLasso(f, l, lab)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got := oracle.AcceptsLasso(b, l); got != want {
				small := gen.ShrinkFormula(f, func(g *ltl.Formula) bool {
					w, err := ltl.EvalLasso(g, l, lab)
					gb, _ := ltl.TranslateBuchi(nil, g, lab)
					return err == nil && oracle.AcceptsLasso(gb, l) != w
				})
				t.Fatalf("trial %d: translation of %s disagrees with EvalLasso on %s (Büchi %v, eval %v)\nshrunk formula: %s",
					trial, f, l.String(ab), got, want, small)
			}
		}
	}
}

// compiledLawLabeling draws the labeling for one compiled-evaluation
// trial, by kind: the canonical labeling of two or three letters, the
// canonical image of a random homomorphism that hides letters (ε), or
// several propositions per letter. It returns the formula's atoms and
// the lassos' alphabet, which has one more letter than the labeling
// covers.
func compiledLawLabeling(rng *rand.Rand, kind int) (*ltl.Labeling, []string, *alphabet.Alphabet) {
	src := gen.Letters(2 + rng.Intn(2))
	var lab *ltl.Labeling
	var atoms []string
	switch kind {
	case 0:
		lab, atoms = ltl.Canonical(src), src.Names()
	case 1:
		h := gen.Hom(rng, src, 0.4)
		lab, atoms = h.Labeling(), append(h.Dest().Names(), alphabet.EpsilonName)
	default:
		lab, atoms = ltl.NewLabeling(src), []string{"p", "q", "r"}[:2+rng.Intn(2)]
		for _, sym := range src.Symbols() {
			var props []string
			for _, p := range atoms {
				if rng.Intn(2) == 0 {
					props = append(props, p)
				}
			}
			lab.SetLabel(sym, props...)
		}
	}
	letters := src.Clone()
	letters.Symbol("unlabeled")
	return lab, atoms, letters
}

// TestLawCompiledEvalAgreesWithEval pins ltl.Compile, the evaluator the
// statistical check runs, to the direct EvalLasso semantics: 2,100
// random formulas of depth up to 4, with every derived operator, each
// on 20 random lassos whose loops reach 64 letters, under three kinds
// of labeling and with letters the labeling does not cover. One
// evaluator serves all 20 lassos, so its reused scratch is covered too.
func TestLawCompiledEvalAgreesWithEval(t *testing.T) {
	rng := newRng(108)
	for trial := 0; trial < 2100; trial++ {
		lab, atoms, letters := compiledLawLabeling(rng, trial%3)
		f := gen.Formula(rng, atoms, 1+rng.Intn(4))
		eval := ltl.Compile(f, lab).Evaluator()
		for i := 0; i < 20; i++ {
			maxLoop := 4
			if i%3 == 0 {
				maxLoop = 64
			}
			l := gen.Lasso(rng, letters, 6, maxLoop)
			want, err := ltl.EvalLasso(f, l, lab)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got, err := eval.Eval(l)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got != want {
				small := gen.ShrinkFormula(f, func(g *ltl.Formula) bool {
					w, err := ltl.EvalLasso(g, l, lab)
					c, cerr := ltl.Compile(g, lab).Evaluator().Eval(l)
					return err == nil && cerr == nil && c != w
				})
				t.Fatalf("trial %d: compiled %s disagrees with EvalLasso on %s (compiled %v, eval %v)\nshrunk formula: %s",
					trial, f, l.String(letters), got, want, small)
			}
		}
	}
}

// TestLawRbarPreservation: the word-level form of Lemma 7.5 behind
// Theorems 8.2/8.3 — for every concrete x with h(x) defined,
// x ⊨_{λhΣΣ'} R̄(η) ⟺ h(x) ⊨_{λΣ'} η.
func TestLawRbarPreservation(t *testing.T) {
	rng := newRng(106)
	src := gen.Letters(3)
	for trial := 0; trial < 150; trial++ {
		h := gen.Hom(rng, src, 0.4)
		atoms := h.Dest().Names()
		eta := gen.Formula(rng, atoms, 1+rng.Intn(3))
		rbar, err := ltl.Rbar(eta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 10; i++ {
			x := gen.Lasso(rng, src, 2, 3)
			hx, ok := h.ApplyLasso(x)
			if !ok {
				continue // h(x) finite: the law does not apply
			}
			left, err := ltl.EvalLasso(rbar, x, h.Labeling())
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			right, err := ltl.EvalLasso(eta, hx, ltl.Canonical(h.Dest()))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if left != right {
				t.Fatalf("trial %d: R̄ preservation violated on x=%s (h(x)=%s): R̄(η) %v, η %v\nη = %s\nh = %s",
					trial, x.String(src), hx.String(h.Dest()), left, right, eta, h)
			}
		}
	}
}

// TestLawTheorem82_83Abstraction: the abstract relative-liveness
// verdict under a simple homomorphism must match the direct concrete
// check of R̄(η) (Theorem 8.2: abstract holds ∧ simple ⇒ concrete
// holds; Theorem 8.3: abstract fails ⇒ concrete fails). Cases where
// the {#}*-extension fires are skipped: the theorems as stated assume
// h(L) has no maximal words.
func TestLawTheorem82_83Abstraction(t *testing.T) {
	rng := newRng(107)
	src := gen.Letters(3)
	conclusive := 0
	for trial := 0; trial < 400 && conclusive < 60; trial++ {
		sys := gen.System(rng, src, 3+rng.Intn(3), 0.3+0.3*rng.Float64())
		var h *hom.Hom
		if rng.Float64() < 0.5 {
			h = gen.IdentityHom(rng, src, 0.4)
		} else {
			h = gen.Hom(rng, src, 0.4)
		}
		eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
		report, err := core.VerifyViaAbstraction(context.Background(), sys, h, eta)
		if err != nil {
			continue // empty behaviors or non-Σ'-normal input: law not applicable
		}
		if report.ExtendedMaximal {
			continue
		}
		concrete, err := core.ConcreteProperty(h, eta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, concrete))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch report.Conclusion {
		case core.ConcreteHolds:
			conclusive++
			if !rl.Holds {
				t.Fatalf("trial %d: Theorem 8.2 violated: abstract holds under simple h but concrete R̄(η) fails (bad prefix %s)\nη = %s\nh = %s\nsystem:\n%s",
					trial, rl.BadPrefix.String(src), eta, h, sys.FormatString())
			}
		case core.ConcreteFails:
			conclusive++
			if rl.Holds {
				t.Fatalf("trial %d: Theorem 8.3 violated: abstract fails but concrete R̄(η) holds\nη = %s\nh = %s\nsystem:\n%s",
					trial, eta, h, sys.FormatString())
			}
		}
	}
	if conclusive < 60 {
		t.Fatalf("only %d conclusive abstraction cases in 400 trials — generator shape too restrictive", conclusive)
	}
}
