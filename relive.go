package relive

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/petri"
	"relive/internal/rex"
	"relive/internal/ts"
	"relive/internal/word"
)

// Re-exported model types. The aliases deliberately expose the internal
// implementations: they are the supported API, reachable only through
// this package.
type (
	// Alphabet is a finite set of interned action symbols.
	Alphabet = alphabet.Alphabet
	// Symbol is an interned action letter; the zero value is ε.
	Symbol = alphabet.Symbol
	// Word is a finite action sequence.
	Word = word.Word
	// Lasso is an ultimately periodic ω-word u·v^ω.
	Lasso = word.Lasso
	// System is a finite-state transition system without acceptance;
	// its behaviors are lim(L) of its prefix-closed path language.
	System = ts.System
	// Edge is a labeled transition of a System.
	Edge = ts.Edge
	// Formula is a PLTL formula (Section 3 of the paper).
	Formula = ltl.Formula
	// Labeling is a function λ : Σ → 2^AP interpreting formulas over
	// action alphabets.
	Labeling = ltl.Labeling
	// Buchi is a nondeterministic Büchi automaton.
	Buchi = buchi.Buchi
	// Hom is an abstracting homomorphism h : Σ → Σ' ∪ {ε}
	// (Definition 6.1).
	Hom = hom.Hom
	// Net is a place/transition Petri net.
	Net = petri.Net
	// Property is an ω-regular property, from a formula or an automaton.
	Property = core.Property
	// Run is an ultimately periodic run of a System.
	Run = fairness.Run

	// LivenessResult reports a relative-liveness verdict with a bad
	// prefix witness on failure.
	LivenessResult = core.LivenessResult
	// SafetyResult reports a relative-safety verdict with a violating
	// behavior on failure.
	SafetyResult = core.SafetyResult
	// SatisfactionResult reports a satisfaction verdict with a
	// counterexample behavior on failure.
	SatisfactionResult = core.SatisfactionResult
	// MachineClosureResult reports a machine-closure verdict
	// (Definition 4.6).
	MachineClosureResult = core.MachineClosureResult
	// FairImplementation is the Theorem 5.1 synthesis output.
	FairImplementation = core.FairImplementation
	// AbstractionReport is the outcome of abstraction-based
	// verification (Sections 6–8).
	AbstractionReport = core.AbstractionReport
	// Conclusion classifies what an abstraction-based check proved.
	Conclusion = core.Conclusion
	// FairnessKind selects a fairness notion for the fair checks.
	FairnessKind = fairness.Kind
	// FairAbstractReport is the outcome of a fairness-within-abstraction
	// check (CheckFairAbstract).
	FairAbstractReport = core.FairAbstractReport
)

// Fairness notions.
const (
	// FairnessStrong: transitions enabled infinitely often are taken
	// infinitely often.
	FairnessStrong = fairness.Strong
	// FairnessWeak: transitions continuously enabled are taken
	// infinitely often.
	FairnessWeak = fairness.Weak
)

// Abstraction conclusions (Corollary 8.4).
const (
	// ConcreteHolds: abstract check passed under a simple homomorphism.
	ConcreteHolds = core.ConcreteHolds
	// ConcreteFails: abstract check failed; Theorem 8.3 refutes the
	// concrete system.
	ConcreteFails = core.ConcreteFails
	// Inconclusive: abstract check passed but the homomorphism is not
	// simple.
	Inconclusive = core.Inconclusive
)

// Epsilon is the reserved empty-word symbol.
const Epsilon = alphabet.Epsilon

// NewAlphabet returns an alphabet containing the given letters.
func NewAlphabet(names ...string) *Alphabet { return alphabet.FromNames(names...) }

// NewSystem returns an empty transition system over ab.
func NewSystem(ab *Alphabet) *System { return ts.New(ab) }

// ParseSystem reads a system from the text format:
//
//	init <state>
//	<from> <action> <to>
func ParseSystem(r io.Reader) (*System, error) { return ts.Parse(r) }

// ParseSystemString is ParseSystem on a string.
func ParseSystemString(text string) (*System, error) { return ts.ParseString(text) }

// NewNet returns an empty Petri net; use its reachability graph as a
// System (the paper's Figure 1 → Figure 2 step).
func NewNet() *Net { return petri.New() }

// ParseLTL parses a PLTL formula; both ASCII (G F result) and the
// paper's Unicode (□◇result) syntax are accepted.
func ParseLTL(text string) (*Formula, error) { return ltl.Parse(text) }

// MustParseLTL is ParseLTL panicking on error, for constant formulas.
func MustParseLTL(text string) *Formula { return ltl.MustParse(text) }

// CanonicalLabeling returns λ_Σ, interpreting each action name as the
// proposition holding exactly at that action (Definition 7.2).
func CanonicalLabeling(ab *Alphabet) *Labeling { return ltl.Canonical(ab) }

// NewHom returns an abstracting homomorphism between two alphabets;
// unmapped letters are hidden.
func NewHom(src, dst *Alphabet) *Hom { return hom.New(src, dst) }

// ParseHom parses "a=>x, b=>" mapping lists over src; empty targets
// hide letters.
func ParseHom(src *Alphabet, spec string) (*Hom, error) { return hom.Parse(src, spec) }

// ObserveActions returns the homomorphism keeping exactly the named
// actions and hiding everything else — the Section 2 abstraction shape.
func ObserveActions(src *Alphabet, keep ...string) *Hom { return hom.Identity(src, keep...) }

// PropertyFromLTL wraps a formula (with optional labeling; nil means
// the canonical labeling of the checked system) as a Property.
func PropertyFromLTL(f *Formula, lab *Labeling) Property { return core.FromFormula(f, lab) }

// PropertyFromBuchi wraps a Büchi automaton as a Property.
func PropertyFromBuchi(b *Buchi) Property { return core.FromAutomaton(b) }

// CheckAll runs all three checks of Section 4 — satisfaction, relative
// liveness and relative safety — serially over one shared artifact
// pipeline, and cross-validates Theorem 4.7. Under
// WithStatisticalFallback a system over the state budget, or an exact
// run over the time budget, is answered by the sampling engine instead;
// the report's Statistical field marks such answers.
func (c *Checker) CheckAll(ctx context.Context, sys *System, p Property) (*Report, error) {
	if c.fbSet {
		return c.checkAllWithFallback(ctx, sys, p)
	}
	return core.CheckAll(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckRelativeLiveness decides whether p is a relative liveness
// property of sys (Definition 4.1, via Lemma 4.3).
func (c *Checker) CheckRelativeLiveness(ctx context.Context, sys *System, p Property) (LivenessResult, error) {
	return core.RelativeLiveness(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckRelativeSafety decides whether p is a relative safety property
// of sys (Definition 4.2, via Lemma 4.4).
func (c *Checker) CheckRelativeSafety(ctx context.Context, sys *System, p Property) (SafetyResult, error) {
	return core.RelativeSafety(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckSatisfies decides plain satisfaction L_ω ⊆ P. By Theorem 4.7 it
// agrees with the conjunction of the two relative checks.
func (c *Checker) CheckSatisfies(ctx context.Context, sys *System, p Property) (SatisfactionResult, error) {
	return core.Satisfies(c.ctx(ctx), core.NewPipelineCells(sys, p))
}

// CheckPropertyPortfolio runs CheckAll for every property against sys
// on a pool of runtime.GOMAXPROCS(0) workers. All properties share the
// trimmed system and its behavior automaton, built once by whichever
// worker needs them first; reports come back in props order with
// verdicts and witnesses identical to checking each property serially.
// Once ctx is done, running checks stop and jobs not yet started are
// abandoned.
func (c *Checker) CheckPropertyPortfolio(ctx context.Context, sys *System, props []Property) ([]*Report, error) {
	return core.CheckPortfolio(c.ctx(ctx), sys, props, runtime.GOMAXPROCS(0))
}

// CheckSystemsPortfolio runs CheckAll for one property against every
// system on a pool of runtime.GOMAXPROCS(0) workers. Systems sharing an
// alphabet share the property automaton and its negation. Reports come
// back in systems order, identical to the serial results.
func (c *Checker) CheckSystemsPortfolio(ctx context.Context, systems []*System, p Property) ([]*Report, error) {
	return core.CheckSystemsPortfolio(c.ctx(ctx), systems, p, runtime.GOMAXPROCS(0))
}

// CheckRelativeLivenessOmega decides relative liveness for an arbitrary
// ω-regular language given as a Büchi automaton — Definition 4.1 in the
// paper's full generality (system behaviors are the limit-closed special
// case).
func (c *Checker) CheckRelativeLivenessOmega(ctx context.Context, lomega *Buchi, p Property) (LivenessResult, error) {
	return core.RelativeLivenessOmega(c.ctx(ctx), lomega, p)
}

// CheckRelativeSafetyOmega is the ω-language form of the relative-safety
// check.
func (c *Checker) CheckRelativeSafetyOmega(ctx context.Context, lomega *Buchi, p Property) (SafetyResult, error) {
	return core.RelativeSafetyOmega(c.ctx(ctx), lomega, p)
}

// IsLimitClosed reports whether an ω-regular language is limit closed,
// the precondition of Theorem 5.1.
func (c *Checker) IsLimitClosed(ctx context.Context, lomega *Buchi) (bool, Lasso, error) {
	return core.IsLimitClosed(c.ctx(ctx), lomega)
}

// MachineClosed decides Definition 4.6 for two Büchi automata.
func (c *Checker) MachineClosed(ctx context.Context, lomega, lambda *Buchi) (MachineClosureResult, error) {
	return core.MachineClosed(c.ctx(ctx), lomega, lambda)
}

// SynthesizeFairImplementation runs the Theorem 5.1 construction: a
// system with the same behaviors whose strongly fair runs all satisfy
// the relative liveness property p.
func (c *Checker) SynthesizeFairImplementation(ctx context.Context, sys *System, p Property) (*FairImplementation, error) {
	return core.SynthesizeFairImplementation(c.ctx(ctx), sys, p)
}

// AllFairRunsSatisfy checks whether every kind-fair run of sys
// satisfies p, returning a violating fair run otherwise.
func (c *Checker) AllFairRunsSatisfy(ctx context.Context, sys *System, p Property, kind FairnessKind) (bool, *Run, error) {
	return core.AllFairRunsSatisfy(c.ctx(ctx), sys, p, kind)
}

// VerifyViaAbstraction runs the paper's abstraction method end to end:
// abstract sys under h, check that eta (in Σ'-normal form over h's
// destination alphabet) is a relative liveness property of the abstract
// behaviors, decide simplicity of h, and conclude per Corollary 8.4.
func (c *Checker) VerifyViaAbstraction(ctx context.Context, sys *System, h *Hom, eta *Formula) (*AbstractionReport, error) {
	return core.VerifyViaAbstraction(c.ctx(ctx), sys, h, eta)
}

// CheckFairAbstract decides whether all kind-fair runs of sys satisfy
// eta through h — the fairness-within-abstraction verdict combining
// the Theorem 5.1 fair-emptiness machinery with the Sections 6–8
// abstraction constructions. eta must be in Σ'-normal form over h's
// destination alphabet.
func (c *Checker) CheckFairAbstract(ctx context.Context, sys *System, h *Hom, kind FairnessKind, eta *Formula) (*FairAbstractReport, error) {
	p := core.FromFormula(eta, ltl.Canonical(h.Dest()))
	return core.CheckFairAbstract(c.ctx(ctx), core.NewSystemCells(sys), h, kind, p)
}

// ParseFairnessKind parses "strong" or "weak".
func ParseFairnessKind(s string) (FairnessKind, error) { return core.ParseFairnessKind(s) }

// Rbar transforms an abstract property η into R̄(η) for interpretation
// on the concrete system (Definition 7.4 / Figure 5).
func Rbar(eta *Formula) (*Formula, error) { return ltl.Rbar(eta) }

// ConcreteProperty returns R̄(η) under the canonical h-labeling
// λ_{hΣΣ'}, ready for a direct concrete check.
func ConcreteProperty(h *Hom, eta *Formula) (Property, error) {
	return core.ConcreteProperty(h, eta)
}

// EvalLasso evaluates a formula on an ultimately periodic word under a
// labeling — the direct PLTL semantics of Section 3.
func EvalLasso(f *Formula, l Lasso, lab *Labeling) (bool, error) {
	return ltl.EvalLasso(f, l, lab)
}

// ProductSystem composes two systems synchronously on shared actions,
// the compositional-analysis step of [22] in the paper. States are
// numbered in breadth-first discovery order from the initial pair,
// expanding each pair's moves by a's actions in a's interning order and
// then b's private actions in b's, so the same operands always give the
// same system.
func ProductSystem(a, b *System) (*System, error) { return ts.Product(a, b) }

// NewFairScheduler returns a deterministic strongly fair scheduler for
// simulating sys.
func NewFairScheduler(sys *System) (*fairness.Scheduler, error) {
	return fairness.NewScheduler(sys)
}

// Report bundles the satisfaction, relative-liveness and
// relative-safety verdicts; it marshals to JSON.
type Report = core.Report

// ReduceSystem returns the strong-bisimulation quotient of the system:
// fewer states, identical behaviors, identical verdicts.
func ReduceSystem(sys *System) (*System, error) {
	return sys.BisimulationQuotient()
}

// ParseRegex parses a regular expression over action names
// ("request (result | reject) *") and returns an automaton for the
// prefix closure of its language — the shape of system languages in the
// paper. Actions are interned into ab.
func ParseRegex(ab *Alphabet, text string) (*nfa.NFA, error) {
	e, err := rex.Parse(ab, text)
	if err != nil {
		return nil, err
	}
	return e.PrefixClosureNFA(), nil
}

// ParseOmegaRegex parses an ω-regular expression "U ( V ) ^w" and
// returns a Büchi automaton for U·V^ω, usable as a Property via
// PropertyFromBuchi.
func ParseOmegaRegex(ab *Alphabet, text string) (*Buchi, error) {
	o, err := rex.ParseOmega(ab, text)
	if err != nil {
		return nil, err
	}
	return o.Buchi()
}

// SimplifyLTL returns an equivalent, usually smaller formula in
// negation normal form.
func SimplifyLTL(f *Formula) *Formula { return ltl.Simplify(f) }

// EquivalentLTL reports whether two formulas agree on every ω-word over
// the alphabet under the canonical labeling. Malformed inputs — nil
// formulas or a nil alphabet, or internal translation failures on
// adversarial formulas — are reported as errors rather than panics, so
// the function is safe on unvalidated (e.g. fuzzer-generated) input.
func EquivalentLTL(f, g *Formula, ab *Alphabet) (eq bool, err error) {
	if f == nil || g == nil {
		return false, fmt.Errorf("relive: EquivalentLTL: nil formula")
	}
	if ab == nil {
		return false, fmt.Errorf("relive: EquivalentLTL: nil alphabet")
	}
	defer func() {
		if r := recover(); r != nil {
			eq, err = false, fmt.Errorf("relive: EquivalentLTL: %v", r)
		}
	}()
	return ltl.Equivalent(f, g, ltl.Canonical(ab)), nil
}
