package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/paper"
	"relive/internal/ts"
	"relive/internal/word"
)

// --- Paper claims: Figures 2 and 3, Section 2 ---

func TestFig2NotSatisfiedButRelativeLiveness(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)

	sat, err := Satisfies(context.Background(), NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if sat.Holds {
		t.Error("□◇result satisfied by Figure 2 — the paper says it is not")
	}
	// The paper's counterexample shape: lock·(request·no·reject)^ω. Our
	// checker returns some counterexample; validate it semantically.
	got, err := ltl.EvalLasso(paper.PropertyInfResults(), sat.Counterexample, ltl.Canonical(sys.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Errorf("counterexample %s satisfies the property", sat.Counterexample.String(sys.Alphabet()))
	}

	rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Errorf("□◇result is not a relative liveness property of Figure 2 (bad prefix %s) — the paper says it is",
			rl.BadPrefix.String(sys.Alphabet()))
	}
}

func TestFig2PaperCounterexampleIsABehavior(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	beh, err := sys.Behaviors()
	if err != nil {
		t.Fatal(err)
	}
	ab := sys.Alphabet()
	l := word.MustLasso(
		word.FromNames(ab, paper.ActLock),
		word.FromNames(ab, paper.ActRequest, paper.ActNo, paper.ActReject),
	)
	if !beh.AcceptsLasso(l) {
		t.Fatal("lock·(request·no·reject)^ω is not a behavior of Figure 2 — model wrong")
	}
	got, err := ltl.EvalLasso(paper.PropertyInfResults(), l, ltl.Canonical(ab))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("the paper's counterexample satisfies □◇result?")
	}
}

func TestFig3NotRelativeLiveness(t *testing.T) {
	sys := paper.Fig3System()
	p := FromFormula(paper.PropertyInfResults(), nil)
	rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Holds {
		t.Fatal("□◇result is a relative liveness property of Figure 3 — the paper says no fairness can save it")
	}
	// The bad prefix must be a real behavior prefix.
	if !sys.AcceptsWord(rl.BadPrefix) {
		t.Errorf("bad prefix %s is not a word of the system", rl.BadPrefix.String(sys.Alphabet()))
	}
}

// --- Lemma 4.3 route vs Definition 4.1 route vs machine closure ---

func randomSystem(rng *rand.Rand, ab *alphabet.Alphabet, n int) *ts.System {
	s := ts.New(ab)
	for i := 0; i < n; i++ {
		s.AddState(stateName(i))
	}
	syms := ab.Symbols()
	for i := 0; i < n; i++ {
		for _, sym := range syms {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.45 {
					from, _ := s.LookupState(stateName(i))
					to, _ := s.LookupState(stateName(rng.Intn(n)))
					s.AddTransition(from, sym, to)
				}
			}
		}
	}
	init, _ := s.LookupState(stateName(0))
	s.SetInitial(init)
	return s
}

func stateName(i int) string { return "s" + string(rune('0'+i%10)) + string(rune('a'+i/10)) }

func randomPropertyFormula(rng *rand.Rand, atoms []string) *ltl.Formula {
	var build func(depth int) *ltl.Formula
	build = func(depth int) *ltl.Formula {
		if depth <= 0 || rng.Float64() < 0.3 {
			return ltl.Atom(atoms[rng.Intn(len(atoms))])
		}
		switch rng.Intn(7) {
		case 0:
			return ltl.Not(build(depth - 1))
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
	return build(3)
}

// TestQuickRLThreeAlgorithmsAgree cross-validates the three independent
// decision procedures for relative liveness: the Lemma 4.3
// characterization, the direct Definition 4.1 configuration search, and
// the machine-closure route (Definition 4.6).
func TestQuickRLThreeAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ab := gen.Letters(2)
	atoms := ab.Names()
	for trial := 0; trial < 60; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), nil)

		r1, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RelativeLivenessDirect(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := RelativeLivenessViaMachineClosure(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Holds != r2.Holds || r1.Holds != r3.Holds {
			t.Fatalf("trial %d: algorithms disagree: lemma4.3=%v direct=%v machineclosure=%v (property %s)\n%s",
				trial, r1.Holds, r2.Holds, r3.Holds, p, sys.FormatString())
		}
		// Witness validation: the bad prefix must be a behavior prefix
		// with no continuation satisfying the property.
		if !r1.Holds {
			if trimmed, err := sys.Trim(); err == nil {
				if !trimmed.AcceptsWord(r1.BadPrefix) {
					t.Fatalf("trial %d: bad prefix not a behavior prefix", trial)
				}
			}
		}
	}
}

// TestQuickConjunctionTheorem exercises Theorem 4.7: satisfaction iff
// relative liveness and relative safety.
func TestQuickConjunctionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ab := gen.Letters(2)
	atoms := ab.Names()
	for trial := 0; trial < 60; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), nil)

		sat, err := Satisfies(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		viaConj, err := SatisfiesViaConjunction(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if sat.Holds != viaConj {
			rl, _ := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
			rs, _ := RelativeSafety(context.Background(), NewPipelineCells(sys, p))
			t.Fatalf("trial %d: Theorem 4.7 violated: direct=%v, RL=%v, RS=%v (property %s)\n%s",
				trial, sat.Holds, rl.Holds, rs.Holds, p, sys.FormatString())
		}
	}
}

// TestRelativeSafetyWitness validates the violation lasso returned by a
// failing relative-safety check: it is a behavior, it violates P, and
// each of its prefixes (up to a bound) extends to a behavior in P.
func TestRelativeSafetyWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ab := gen.Letters(2)
	atoms := ab.Names()
	found := 0
	for trial := 0; trial < 120 && found < 10; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		f := randomPropertyFormula(rng, atoms)
		p := FromFormula(f, nil)
		rs, err := RelativeSafety(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Holds {
			continue
		}
		found++
		beh, err := sys.Behaviors()
		if err != nil {
			t.Fatal(err)
		}
		if !beh.AcceptsLasso(rs.Violation) {
			t.Fatalf("trial %d: violation %s is not a behavior", trial, rs.Violation.String(ab))
		}
		sat, err := ltl.EvalLasso(f, rs.Violation, ltl.Canonical(ab))
		if err != nil {
			t.Fatal(err)
		}
		if sat {
			t.Fatalf("trial %d: violation satisfies the property", trial)
		}
		// Every prefix of the violation extends into L_ω ∩ P: check via
		// the product being nonempty from each prefix configuration.
		pa, err := p.Automaton(nil, ab)
		if err != nil {
			t.Fatal(err)
		}
		bound := len(rs.Violation.Prefix) + 2*len(rs.Violation.Loop) + 2
		for k := 0; k <= bound; k++ {
			w := rs.Violation.PrefixOfLen(k)
			contBeh := restartOnWord(beh, w)
			contPA := restartOnWord(pa, w)
			if contBeh == nil || contPA == nil {
				t.Fatalf("trial %d: prefix %s leaves the product", trial, w.String(ab))
			}
			if prod, _ := buchi.IntersectCtx(nil, contBeh, contPA); prod.IsEmpty() {
				t.Fatalf("trial %d: prefix %s of the violation has no extension in L∩P — not in lim(pre(L∩P))",
					trial, w.String(ab))
			}
		}
	}
	if found == 0 {
		t.Skip("no relative-safety violations sampled")
	}
}

// restartOnWord returns b restarted at the states reached on w, or nil
// when the run dies.
func restartOnWord(b *buchi.Buchi, w word.Word) *buchi.Buchi {
	cur := map[buchi.State]bool{}
	for _, s := range b.Initial() {
		cur[s] = true
	}
	for _, sym := range w {
		next := map[buchi.State]bool{}
		for s := range cur {
			for _, t := range b.Succ(s, sym) {
				next[t] = true
			}
		}
		if len(next) == 0 {
			return nil
		}
		cur = next
	}
	var states []buchi.State
	for s := range cur {
		states = append(states, s)
	}
	return restart(b, states)
}

// --- Remark 1: with L_ω = Σ^ω, relative liveness/safety coincide with
// classic liveness/safety ---

func TestRemark1ClassicalLivenessAndSafety(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	full := ts.New(ab)
	full.AddEdge("q", "a", "q")
	full.AddEdge("q", "b", "q")
	init, _ := full.LookupState("q")
	full.SetInitial(init)

	tests := []struct {
		formula  string
		liveness bool
		safety   bool
	}{
		{"G F a", true, false},       // pure liveness
		{"G a", false, true},         // pure safety
		{"F a", true, false},         // liveness
		{"a", false, true},           // safety (first letter)
		{"G F a & G a", false, true}, // ∧ of safety and liveness... Ga ∧ GFa ≡ Ga: safety
		{"true", true, true},         // both
	}
	for _, tc := range tests {
		p := FromFormula(ltl.MustParse(tc.formula), nil)
		rl, err := RelativeLiveness(context.Background(), NewPipelineCells(full, p))
		if err != nil {
			t.Fatal(err)
		}
		if rl.Holds != tc.liveness {
			t.Errorf("liveness(%q) = %v, want %v", tc.formula, rl.Holds, tc.liveness)
		}
		rs, err := RelativeSafety(context.Background(), NewPipelineCells(full, p))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Holds != tc.safety {
			t.Errorf("safety(%q) = %v, want %v", tc.formula, rs.Holds, tc.safety)
		}
	}
}

// restart clones b with the initial states replaced by the given set.
func restart(b *buchi.Buchi, initial []buchi.State) *buchi.Buchi {
	c := buchi.New(b.Alphabet())
	for i := 0; i < b.NumStates(); i++ {
		c.AddState(b.Accepting(buchi.State(i)))
	}
	for i := 0; i < b.NumStates(); i++ {
		for _, sym := range b.Alphabet().Symbols() {
			for _, t := range b.Succ(buchi.State(i), sym) {
				c.AddTransition(buchi.State(i), sym, t)
			}
		}
	}
	for _, s := range initial {
		c.SetInitial(s)
	}
	return c
}
