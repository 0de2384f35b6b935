package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/gen"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/paper"
	"relive/internal/ts"
)

// TestSection2AbstractionFig2 is the paper's positive case: the
// homomorphism hiding yes/no/lock/free is simple on Figure 2's language,
// □◇result is a relative liveness property of the abstract system, and
// Theorem 8.2 concludes it for the concrete system — which a direct
// check confirms.
func TestSection2AbstractionFig2(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	h := paper.AbstractionHom(sys)
	eta := paper.PropertyInfResults()

	report, err := VerifyViaAbstraction(context.Background(), sys, h, eta)
	if err != nil {
		t.Fatal(err)
	}
	if report.ExtendedMaximal {
		t.Errorf("h(L) of Figure 2 has maximal words (witness %s)?",
			report.MaximalWitness.String(h.Dest()))
	}
	if !report.Simple {
		t.Errorf("h is not simple on Figure 2 (witness %s) — the paper says it is",
			report.SimplicityWitness.String(sys.Alphabet()))
	}
	if !report.AbstractHolds {
		t.Errorf("□◇result not relative liveness on the abstract system (bad prefix %s)",
			report.AbstractBadPrefix.String(h.Dest()))
	}
	if report.Conclusion != ConcreteHolds {
		t.Fatalf("conclusion = %v, want ConcreteHolds", report.Conclusion)
	}
	// Figure 4 shape: two states.
	if report.Abstract.NumStates() != 2 {
		t.Errorf("abstract system has %d states, want 2 (Figure 4)", report.Abstract.NumStates())
	}
	// Cross-validate Theorem 8.2 by checking R̄(η) directly on Figure 2.
	concrete, err := ConcreteProperty(h, eta)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, concrete))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Errorf("direct concrete check contradicts Theorem 8.2 (bad prefix %s)",
			rl.BadPrefix.String(sys.Alphabet()))
	}
}

// TestSection2AbstractionFig3 is the paper's cautionary case: Figure 3
// abstracts to the same Figure 4 system, the abstract check succeeds,
// but h is not simple — so the method answers "inconclusive", and
// rightly so, because the concrete check fails.
func TestSection2AbstractionFig3(t *testing.T) {
	sys := paper.Fig3System()
	h := paper.AbstractionHom(sys)
	eta := paper.PropertyInfResults()

	report, err := VerifyViaAbstraction(context.Background(), sys, h, eta)
	if err != nil {
		t.Fatal(err)
	}
	if !report.AbstractHolds {
		t.Error("the abstract system of Figure 3 should satisfy the relative liveness check (it equals Figure 4)")
	}
	if report.Simple {
		t.Error("h simple on Figure 3 — the paper says it is not")
	}
	if report.Conclusion != Inconclusive {
		t.Fatalf("conclusion = %v, want Inconclusive", report.Conclusion)
	}
	// The concrete property indeed fails: abstraction would have lied.
	concrete, err := ConcreteProperty(h, eta)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, concrete))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Holds {
		t.Error("R̄(□◇result) is a relative liveness property of Figure 3 — then simplicity would not matter here")
	}
}

// TestFig2AndFig3SameAbstraction: both systems abstract to the same
// behavior (Figure 4), which is what makes the simplicity condition
// essential.
func TestFig2AndFig3SameAbstraction(t *testing.T) {
	fig2, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	fig3 := paper.Fig3System()

	a2, err := fig2.NFA()
	if err != nil {
		t.Fatal(err)
	}
	a3, err := fig3.NFA()
	if err != nil {
		t.Fatal(err)
	}
	img2 := paper.AbstractionHom(fig2).ImageNFA(a2)
	img3 := paper.AbstractionHom(fig3).ImageNFA(a3)
	// The two image automata live over separately interned alphabets;
	// compare over a merged alphabet by re-labeling through names.
	eq, w := nfa.LanguageEqual(relabel(t, img2), relabel(t, img3))
	if !eq {
		t.Errorf("abstract languages differ, witness %v", w)
	}

	fig4, err := paper.Fig4System()
	if err != nil {
		t.Fatal(err)
	}
	if fig4.NumStates() != 2 {
		t.Errorf("Figure 4 has %d states, want 2", fig4.NumStates())
	}
}

// relabel rebuilds an NFA over a canonical alphabet with the same letter
// names, so automata from different Alphabet instances can be compared.
func relabel(t *testing.T, a *nfa.NFA) *nfa.NFA {
	t.Helper()
	canon := alphabet.FromNames(paper.ObservableActions...)
	out := nfa.New(canon)
	for i := 0; i < a.NumStates(); i++ {
		out.AddState(a.Accepting(nfa.State(i)))
	}
	for i := 0; i < a.NumStates(); i++ {
		for _, sym := range a.Alphabet().Symbols() {
			for _, to := range a.Succ(nfa.State(i), sym) {
				out.AddTransition(nfa.State(i), canon.Symbol(a.Alphabet().Name(sym)), to)
			}
		}
	}
	for _, s := range a.Initial() {
		out.SetInitial(s)
	}
	return out
}

// TestVerifyViaAbstractionValidation: η must be in Σ'-normal form.
func TestVerifyViaAbstractionValidation(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	h := paper.AbstractionHom(sys)
	// "lock" is not an abstract letter.
	if _, err := VerifyViaAbstraction(context.Background(), sys, h, ltl.MustParse("G F lock")); err == nil {
		t.Error("formula over hidden letters accepted")
	}
}

// TestQuickTheorems82And83 cross-validates the preservation theorems on
// random systems, homomorphisms and properties:
//
//	Thm 8.3 (no simplicity needed): concrete RL(R̄η) ⇒ abstract RL(η);
//	Thm 8.2 (simple h):             abstract RL(η) ⇒ concrete RL(R̄η).
//
// Samples whose image language has maximal words are skipped, matching
// the theorems' precondition.
func TestQuickTheorems82And83(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	src := gen.Letters(3) // a, b, c
	var simpleSeen, nonSimpleSeen int
	for trial := 0; trial < 120; trial++ {
		sys := randomSystem(rng, src, 1+rng.Intn(4))
		trimmed, err := sys.Trim()
		if err != nil {
			continue
		}
		// Random homomorphism: each letter kept (possibly renamed into
		// {x,y}) or hidden; at least one letter kept.
		h := hom.New(src, alphabet.FromNames("x", "y"))
		kept := false
		for _, name := range src.Names() {
			switch rng.Intn(3) {
			case 0:
				h.SetByName(name, "x")
				kept = true
			case 1:
				h.SetByName(name, "y")
				kept = true
			default:
				h.SetByName(name, "")
			}
		}
		if !kept {
			continue
		}
		concNFA, err := trimmed.NFA()
		if err != nil {
			t.Fatal(err)
		}
		if hasMax, _ := h.HasMaximalWords(concNFA); hasMax {
			continue
		}
		eta := randomSigmaFormulaOver(rng, []string{"x", "y"})

		// Abstract verdict.
		abstractSys, err := abstractSystem(h, concNFA)
		if err != nil {
			continue // empty abstraction
		}
		abs, err := RelativeLiveness(context.Background(), NewPipelineCells(abstractSys, FromFormula(eta, ltl.Canonical(abstractSys.Alphabet()))))
		if err != nil {
			t.Fatal(err)
		}
		// Concrete verdict on R̄(η).
		concProp, err := ConcreteProperty(h, eta)
		if err != nil {
			t.Fatal(err)
		}
		conc, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, concProp))
		if err != nil {
			t.Fatal(err)
		}
		// Theorem 8.3.
		if conc.Holds && !abs.Holds {
			t.Fatalf("trial %d: Theorem 8.3 violated: concrete holds, abstract fails\nη=%s h=%s\n%s",
				trial, eta, h, sys.FormatString())
		}
		// Theorem 8.2 (needs simplicity).
		res, err := h.IsSimple(concNFA)
		if err != nil {
			t.Fatal(err)
		}
		if res.Simple {
			simpleSeen++
			if abs.Holds && !conc.Holds {
				t.Fatalf("trial %d: Theorem 8.2 violated: h simple, abstract holds, concrete fails\nη=%s h=%s\n%s",
					trial, eta, h, sys.FormatString())
			}
		} else {
			nonSimpleSeen++
		}
	}
	if simpleSeen == 0 {
		t.Error("no simple homomorphisms sampled; test is vacuous")
	}
	if nonSimpleSeen == 0 {
		t.Log("note: no non-simple homomorphisms sampled")
	}
}

func randomSigmaFormulaOver(rng *rand.Rand, atoms []string) *ltl.Formula {
	var build func(depth int) *ltl.Formula
	build = func(depth int) *ltl.Formula {
		if depth <= 0 || rng.Float64() < 0.3 {
			return ltl.Atom(atoms[rng.Intn(len(atoms))])
		}
		switch rng.Intn(7) {
		case 0:
			return ltl.Not(ltl.Atom(atoms[rng.Intn(len(atoms))]))
		case 1:
			return ltl.And(build(depth-1), build(depth-1))
		case 2:
			return ltl.Or(build(depth-1), build(depth-1))
		case 3:
			return ltl.Next(build(depth - 1))
		case 4:
			return ltl.Until(build(depth-1), build(depth-1))
		case 5:
			return ltl.Eventually(build(depth - 1))
		default:
			return ltl.Globally(build(depth - 1))
		}
	}
	return build(2)
}

// abstractSystem builds the abstract transition system for h(L).
func abstractSystem(h *hom.Hom, concNFA *nfa.NFA) (*ts.System, error) {
	return systemFromPrefixClosed(h.ImageNFA(concNFA))
}

// cancelOnSpan is a recorder that cancels a context as soon as a span
// with the given name starts.
type cancelOnSpan struct {
	*obs.Trace
	name   string
	cancel context.CancelFunc
}

func (c cancelOnSpan) SpanStart(name string) obs.SpanID {
	if name == c.name {
		c.cancel()
	}
	return c.Trace.SpanStart(name)
}

// TestVerifyViaAbstractionHonoursContext cancels the check once the
// h(L) image starts: the abstract relative-liveness check must notice
// the cancellation, and the simplicity check must never start.
func TestVerifyViaAbstractionHonoursContext(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTrace()
	ctx = obs.ContextWithRecorder(ctx, cancelOnSpan{Trace: tr, name: "h(L)", cancel: cancel})
	_, err = VerifyViaAbstraction(ctx, sys, paper.AbstractionHom(sys), paper.PropertyInfResults())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := tr.Find("h(L)"); !ok {
		t.Fatal("the h(L) span never started")
	}
	if _, ok := tr.Find("simplicity of h"); ok {
		t.Error("simplicity check ran after cancellation")
	}
}
