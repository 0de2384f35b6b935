package core

import (
	"fmt"

	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// Conclusion is what an abstraction-based verification allows one to
// assert about the concrete system.
type Conclusion int

// Possible conclusions of VerifyViaAbstraction.
const (
	// ConcreteHolds: the abstract check succeeded and h is simple, so by
	// Theorem 8.2 the transformed property is a relative liveness
	// property of the concrete system.
	ConcreteHolds Conclusion = iota + 1
	// ConcreteFails: the abstract check failed; by Theorem 8.3 (which
	// needs no simplicity) the transformed property cannot be a relative
	// liveness property of the concrete system.
	ConcreteFails
	// Inconclusive: the abstract check succeeded but h is not simple, so
	// Theorem 8.2 does not apply; Section 2's Figure 3 shows the
	// conclusion would be unsound.
	Inconclusive
)

// String renders the conclusion.
func (c Conclusion) String() string {
	switch c {
	case ConcreteHolds:
		return "concrete system verified (Theorem 8.2)"
	case ConcreteFails:
		return "concrete system refuted (Theorem 8.3)"
	case Inconclusive:
		return "inconclusive: homomorphism not simple"
	}
	return "unknown"
}

// AbstractionReport is the full outcome of an abstraction-based
// relative-liveness verification.
type AbstractionReport struct {
	// Abstract is the abstract system lim(h(L)) the property was checked
	// on (after the #-extension when h(L) had maximal words).
	Abstract *ts.System
	// ExtendedMaximal records whether maximal words were present in h(L)
	// and the {#}*-extension of [20] was applied; MaximalWitness is one
	// maximal word.
	ExtendedMaximal bool
	MaximalWitness  word.Word
	// Simple is the simplicity verdict for h on L (Definition 6.3), with
	// a witness configuration word when it fails.
	Simple            bool
	SimplicityWitness word.Word
	// AbstractHolds is the relative-liveness verdict of η on the
	// abstract system, with a witness prefix when it fails.
	AbstractHolds     bool
	AbstractBadPrefix word.Word
	// Transformed is R̄(η), the property as interpreted on the concrete
	// system under λ_{hΣΣ'} (Definition 7.4).
	Transformed *ltl.Formula
	// Conclusion is what Theorems 8.2/8.3 allow one to assert.
	Conclusion Conclusion
}

// VerifyViaAbstraction runs the paper's verification method end to end:
// build the abstract system lim(h(L)), restore the no-maximal-words
// precondition by the {#}*-extension if needed, decide whether η is a
// relative liveness property of the abstract behaviors, decide whether h
// is simple on L, and combine the answers per Corollary 8.4. η must be
// in Σ'-normal form (atoms are abstract action names).
func VerifyViaAbstraction(sys *ts.System, h *hom.Hom, eta *ltl.Formula) (*AbstractionReport, error) {
	return VerifyViaAbstractionRec(nil, sys, h, eta)
}

// CheckSigmaNormalForm reports an error unless eta is in Σ'-normal form
// over h's destination alphabet (Definition 7.2): positive normal form
// whose atoms are abstract action names. The abstraction method and
// fairness within abstraction both require it.
func CheckSigmaNormalForm(h *hom.Hom, eta *ltl.Formula) error {
	letters := make(map[string]bool)
	for _, name := range h.Dest().Names() {
		letters[name] = true
	}
	if !eta.Normalize().IsSigmaNormalForm(letters) {
		return fmt.Errorf("%s is not in Σ'-normal form for alphabet %s", eta, h.Dest())
	}
	return nil
}

// VerifyViaAbstractionRec is VerifyViaAbstraction with every pipeline
// step reported to rec: the h(L) image, the {#}*-extension, the
// abstract-system construction, the abstract relative-liveness check,
// the simplicity decision, and the R̄(η) transformation.
func VerifyViaAbstractionRec(rec obs.Recorder, sys *ts.System, h *hom.Hom, eta *ltl.Formula) (*AbstractionReport, error) {
	sp := obs.StartSpan(rec, "core.VerifyViaAbstraction").
		Tag("paper", "Corollary 8.4")
	defer sp.End()
	if err := CheckSigmaNormalForm(h, eta); err != nil {
		return nil, fmt.Errorf("abstraction: %w", err)
	}
	trimmed, err := sys.Trim()
	if err != nil {
		return nil, fmt.Errorf("abstraction: %w", err)
	}
	concNFA, err := trimmed.NFA()
	if err != nil {
		return nil, fmt.Errorf("abstraction: %w", err)
	}

	report := &AbstractionReport{}

	// Maximal words in h(L) would make behaviors of the abstract system
	// lose information (a maximal w has no ω-continuation); extend them
	// with {#}* per [20] so they stay visible as w·#^ω.
	asp := obs.StartSpan(rec, "h(L)").
		Tag("paper", "Definition 6.1: abstracting homomorphism").
		Int("concrete_states", int64(concNFA.NumStates()))
	hasMax, maxW := h.HasMaximalWords(concNFA)
	abstractNFA := h.ImageNFA(concNFA)
	if hasMax {
		report.ExtendedMaximal = true
		report.MaximalWitness = maxW
		esp := obs.StartSpan(rec, "{#}*-extension").
			Tag("paper", "[20]: maximal words stay visible as w·#^ω")
		abstractNFA = h.ExtendMaximalWords(concNFA)
		esp.End()
	}
	asp.Int("image_states", int64(abstractNFA.NumStates()))
	asp.End()
	ssp := obs.StartSpan(rec, "abstract system lim(h(L))")
	abstractSys, err := systemFromPrefixClosed(abstractNFA)
	if err != nil {
		ssp.End()
		return nil, fmt.Errorf("abstraction: %w", err)
	}
	ssp.Int("out_states", int64(abstractSys.NumStates()))
	ssp.End()
	report.Abstract = abstractSys

	// Relative liveness of η on the abstract behaviors, under the
	// canonical Σ'-labeling.
	rl, err := RelativeLivenessRec(rec, abstractSys, FromFormula(eta, ltl.Canonical(abstractSys.Alphabet())))
	if err != nil {
		return nil, fmt.Errorf("abstraction: abstract check: %w", err)
	}
	report.AbstractHolds = rl.Holds
	report.AbstractBadPrefix = rl.BadPrefix

	// Simplicity of h on L (Definition 6.3).
	simsp := obs.StartSpan(rec, "simplicity of h").
		Tag("paper", "Definition 6.3")
	simple, err := h.IsSimple(concNFA)
	simsp.Int("simple", boolInt(err == nil && simple.Simple))
	simsp.End()
	if err != nil {
		return nil, fmt.Errorf("abstraction: simplicity: %w", err)
	}
	report.Simple = simple.Simple
	report.SimplicityWitness = simple.Witness

	// R̄(η), interpreted on the concrete system under λ_{hΣΣ'}.
	rsp := obs.StartSpan(rec, "R̄(η)").
		Tag("paper", "Definition 7.4 / Figure 5")
	rbar, err := ltl.Rbar(eta)
	rsp.End()
	if err != nil {
		return nil, fmt.Errorf("abstraction: %w", err)
	}
	report.Transformed = rbar

	switch {
	case !rl.Holds:
		report.Conclusion = ConcreteFails
	case simple.Simple:
		report.Conclusion = ConcreteHolds
	default:
		report.Conclusion = Inconclusive
	}
	return report, nil
}

// ConcreteProperty returns the property R̄(η) under the canonical
// h-labeling, ready for a direct check against the concrete system —
// used to cross-validate Theorems 8.2/8.3.
func ConcreteProperty(h *hom.Hom, eta *ltl.Formula) (Property, error) {
	rbar, err := ltl.Rbar(eta)
	if err != nil {
		return Property{}, err
	}
	return FromFormula(rbar, h.Labeling()), nil
}

// systemFromPrefixClosed converts an automaton with a prefix-closed
// language (every state accepting) into a minimal deterministic
// transition system with generated state names q0, q1, ...
func systemFromPrefixClosed(a *nfa.NFA) (*ts.System, error) {
	d := a.Determinize().Minimize()
	if d.Initial() < 0 {
		return nil, fmt.Errorf("core: abstract language is empty")
	}
	out := ts.New(a.Alphabet())
	name := func(i nfa.State) string { return fmt.Sprintf("q%d", i) }
	for i := 0; i < d.NumStates(); i++ {
		if !d.Accepting(nfa.State(i)) {
			return nil, fmt.Errorf("core: abstract language is not prefix-closed")
		}
		out.AddState(name(nfa.State(i)))
	}
	for i := 0; i < d.NumStates(); i++ {
		for _, sym := range a.Alphabet().Symbols() {
			if t, ok := d.Delta(nfa.State(i), sym); ok {
				from, _ := out.LookupState(name(nfa.State(i)))
				to, _ := out.LookupState(name(t))
				out.AddTransition(from, sym, to)
			}
		}
	}
	init, _ := out.LookupState(name(d.Initial()))
	out.SetInitial(init)
	return out, nil
}
