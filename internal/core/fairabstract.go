package core

import (
	"context"
	"fmt"

	"relive/internal/buchi"
	"relive/internal/fairness"
	"relive/internal/hom"
	"relive/internal/interrupt"
	"relive/internal/obs"
	"relive/internal/ts"
)

// This file implements the fair-abstract check of the paper's direct
// successor (Ultes-Nitsche & Wolper, "Checking Properties within
// Fairness and Behavior Abstractions"): given a system L, a fairness
// notion F, a simple homomorphism h and a property P over the abstract
// alphabet, decide whether every F-fair run of L satisfies P through h,
// i.e. whether no F-fair run x has h(x) defined with h(x) ∉ P. The
// violating runs are exactly the fair runs of L accepted by h⁻¹(¬P)
// (hom.InverseImageBuchi), so the decision combines the repo's two
// halves: the Sections 6–8 abstraction machinery builds h⁻¹(¬P), and
// the Theorem 5.1 Streett-style fair-emptiness checker decides whether
// a fair accepted run exists. A fused pre(L ∩ h⁻¹(¬P)) emptiness
// pre-filter settles the common "no run at all violates" case without
// touching the fairness machinery.

// FairAbstractReport is the outcome of a fair-abstract check. It
// marshals to JSON for rlcheck -json and the /check/fair-abstract
// endpoint; the witness words use concrete (resp. abstract) action
// names.
type FairAbstractReport struct {
	Property string `json:"property"`
	Hom      string `json:"hom"`
	Fairness string `json:"fairness"` // "strong" or "weak"
	States   int    `json:"states"`

	// Holds: every fair run of the system satisfies the property through
	// h. Vacuous marks the degenerate case of a system without infinite
	// behavior.
	Holds   bool `json:"holds"`
	Vacuous bool `json:"vacuous,omitempty"`

	// On failure, a fair violating run of the concrete system (prefix +
	// loop of action names) and its abstract image under h.
	ViolationPrefix []string `json:"violationPrefix,omitempty"`
	ViolationLoop   []string `json:"violationLoop,omitempty"`
	AbstractPrefix  []string `json:"abstractPrefix,omitempty"`
	AbstractLoop    []string `json:"abstractLoop,omitempty"`

	run *fairness.Run
}

// Witness returns the violating fair run when the check failed, with
// edges over the original (untrimmed) system's states.
func (r *FairAbstractReport) Witness() *fairness.Run { return r.run }

// FairnessKindName renders a fairness.Kind as the wire label used by
// reports, the CLI and the serve endpoint.
func FairnessKindName(kind fairness.Kind) string {
	switch kind {
	case fairness.Strong:
		return "strong"
	case fairness.Weak:
		return "weak"
	}
	return fmt.Sprintf("kind(%d)", int(kind))
}

// ParseFairnessKind parses the wire label back into a fairness.Kind.
func ParseFairnessKind(s string) (fairness.Kind, error) {
	switch s {
	case "strong":
		return fairness.Strong, nil
	case "weak":
		return fairness.Weak, nil
	}
	return 0, fmt.Errorf("core: unknown fairness kind %q (want \"strong\" or \"weak\")", s)
}

// CheckFairAbstract decides whether all kind-fair runs of sc's system
// satisfy eta through h. eta is a property over h's destination
// alphabet; when formula-backed it must be in Σ'-normal form (atoms are
// abstract action names). The system's trimmed behaviors come from sc,
// so a serving layer shares them with the other endpoints' checks.
// Every phase reports a span to ctx's recorder: the trim/behavior
// construction ("lim(L)"), the negation automaton ("¬P"), the inverse
// image ("h⁻¹(¬P)"), the fused pre-filter ("pre(L∩h⁻¹(¬P))"), and the
// fair emptiness search ("fair(L∩h⁻¹(¬P))").
func CheckFairAbstract(ctx context.Context, sc *SystemCells, h *hom.Hom, kind fairness.Kind, eta Property) (*FairAbstractReport, error) {
	if err := interrupt.Done(ctx); err != nil {
		return nil, fmt.Errorf("fair abstract: %w", err)
	}
	if kind != fairness.Strong && kind != fairness.Weak {
		return nil, fmt.Errorf("fair abstract: unknown fairness kind %d", int(kind))
	}
	sys := sc.System()
	if h.Source() != sys.Alphabet() {
		return nil, fmt.Errorf("fair abstract: homomorphism source alphabet is not the system's alphabet")
	}
	if f := eta.Formula(); f != nil {
		if err := CheckSigmaNormalForm(h, f); err != nil {
			return nil, fmt.Errorf("fair abstract: %w", err)
		}
	}

	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.CheckFairAbstract").
		Tag("paper", "fairness within behavior abstraction (successor to Thm 5.1 + Cor 8.4)").
		Tag("fairness", FairnessKindName(kind))
	defer sp.End()

	report := &FairAbstractReport{
		Property: eta.String(),
		Hom:      h.String(),
		Fairness: FairnessKindName(kind),
		States:   sys.NumStates(),
	}

	trimmed, behaviors, err := sc.limits(ctx)
	if err != nil {
		return nil, fmt.Errorf("fair abstract: %w", err)
	}
	if trimmed == nil {
		// No infinite behavior: there are no fair runs at all.
		report.Holds = true
		report.Vacuous = true
		sp.Int("holds", 1)
		return report, nil
	}

	notEta, err := eta.negationFor(ctx, h.Dest())
	if err != nil {
		return nil, fmt.Errorf("fair abstract: %w", err)
	}

	isp := obs.StartSpan(rec, "h⁻¹(¬P)").
		Tag("paper", "Definition 6.1: inverse image under h").
		Int("in_states", int64(notEta.NumStates()))
	bad := h.InverseImageBuchi(notEta)
	isp.Int("out_states", int64(bad.NumStates()))
	isp.End()

	// Pre-filter: when lim(L) ∩ h⁻¹(¬P) is empty, no run at all — fair
	// or not — violates, and the Streett machinery is skipped.
	psp := obs.StartSpan(rec, "pre(L∩h⁻¹(¬P))").
		Int("behavior_states", int64(behaviors.NumStates())).
		Int("violation_states", int64(bad.NumStates()))
	pre, explored, err := buchi.PreProductNFACtx(ctx, behaviors, bad)
	if err != nil {
		psp.Tag("aborted", "context")
		psp.End()
		return nil, fmt.Errorf("fair abstract: %w", err)
	}
	psp.Int("product_states", int64(explored))
	psp.Int("out_states", int64(pre.NumStates()))
	psp.End()
	if pre.NumStates() == 0 {
		report.Holds = true
		sp.Int("holds", 1)
		return report, nil
	}

	// Some run violates; decide whether a fair one does. The search runs
	// on the already-trimmed system (its own trim pass is then a no-op)
	// and is deterministic.
	esp := obs.StartSpan(rec, "fair(L∩h⁻¹(¬P))").
		Tag("paper", "Theorem 5.1 machinery: Streett fair emptiness").
		Tag("fairness", FairnessKindName(kind))
	run, found, err := fairness.ExistsFairRunCtx(ctx, trimmed, bad, kind)
	if err != nil {
		esp.Tag("aborted", "context")
		esp.End()
		return nil, fmt.Errorf("fair abstract: %w", err)
	}
	esp.Int("violation_found", boolInt(found))
	esp.End()
	if !found {
		report.Holds = true
		sp.Int("holds", 1)
		return report, nil
	}

	// Witness: map the run (over trimmed states) back to the original
	// system by name, render the concrete words, and apply h for the
	// abstract image. The image is always defined: acceptance of the
	// vis track inside h⁻¹(¬P) forces a visible letter in the loop.
	orig := remapRun(run, trimmed, sys)
	report.run = &orig
	ab := sys.Alphabet()
	for _, e := range orig.Prefix {
		report.ViolationPrefix = append(report.ViolationPrefix, ab.Name(e.Sym))
	}
	for _, e := range orig.Loop {
		report.ViolationLoop = append(report.ViolationLoop, ab.Name(e.Sym))
	}
	if img, ok := h.ApplyLasso(orig.Word()); ok {
		for _, s := range img.Prefix {
			report.AbstractPrefix = append(report.AbstractPrefix, h.Dest().Name(s))
		}
		for _, s := range img.Loop {
			report.AbstractLoop = append(report.AbstractLoop, h.Dest().Name(s))
		}
	}
	sp.Int("holds", 0)
	return report, nil
}

// remapRun rewrites a run over the trimmed system into the original
// system's state identifiers (trimming preserves names).
func remapRun(r fairness.Run, trimmed, orig *ts.System) fairness.Run {
	conv := func(es []ts.Edge) []ts.Edge {
		if es == nil {
			return nil
		}
		out := make([]ts.Edge, len(es))
		for i, e := range es {
			from, _ := orig.LookupState(trimmed.StateName(e.From))
			to, _ := orig.LookupState(trimmed.StateName(e.To))
			out[i] = ts.Edge{From: from, Sym: e.Sym, To: to}
		}
		return out
	}
	return fairness.Run{Prefix: conv(r.Prefix), Loop: conv(r.Loop)}
}

// AllFairRunsSatisfy checks directly on a plain system whether every
// kind-fair run satisfies p, returning a violating fair run otherwise.
// Under strong fairness this is the check that fails for the minimal
// automaton of the Section 5 example and succeeds for the Theorem 5.1
// synthesis, whose second guarantee it verifies on fi.System.
func AllFairRunsSatisfy(ctx context.Context, sys *ts.System, p Property, kind fairness.Kind) (bool, *fairness.Run, error) {
	notP, err := p.NegationAutomaton(ctx, sys.Alphabet())
	if err != nil {
		return false, nil, fmt.Errorf("fair runs check: %w", err)
	}
	run, found, err := fairness.ExistsFairRunCtx(ctx, sys, notP, kind)
	if err != nil {
		return false, nil, fmt.Errorf("fair runs check: %w", err)
	}
	if found {
		return false, &run, nil
	}
	return true, nil, nil
}
