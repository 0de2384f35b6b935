package core

import (
	"context"
	"fmt"

	"relive/internal/buchi"
	"relive/internal/interrupt"
	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// SafetyResult is the outcome of a relative-safety check. When the
// property is not a relative safety property, Violation is an ultimately
// periodic behavior that does not satisfy the property although every
// one of its prefixes can be extended to a behavior that does (it lies
// in the limit of pre(L_ω ∩ P)).
type SafetyResult struct {
	Holds     bool
	Violation word.Lasso
}

// RelativeSafety decides whether pc's property is a relative safety
// property of its system's behaviors (Definition 4.2), via the
// characterization of Lemma 4.4:
//
//	L_ω ∩ lim(pre(L_ω ∩ P)) ⊆ P.
//
// A system's behaviors L_ω = lim(L) are limit-closed, and there the
// intersection with L_ω changes nothing: pre(L_ω ∩ P) ⊆ pre(L_ω) = L, so
// lim(pre(L_ω ∩ P)) ⊆ lim(L) = L_ω. The left-hand side is therefore
// just the limit of the prefix language of L_ω ∩ P, and inclusion in P
// is decided by on-the-fly emptiness of its intersection with ¬P (for
// formulas, the translated negation; for automata, the rank-based
// complement). A general ω-regular L_ω is not limit-closed;
// RelativeSafetyOmega keeps the product for it. Each phase — the
// pre(L∩P) product, its limit, the negation automaton, and the final
// emptiness check — reports a span to ctx's recorder.
func RelativeSafety(ctx context.Context, pc *PipelineCells) (SafetyResult, error) {
	if err := interrupt.Done(ctx); err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.RelativeSafety").
		Tag("paper", "Definition 4.2 via Lemma 4.4")
	defer sp.End()
	trimmed, _, err := pc.sc.limits(ctx)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	if trimmed == nil {
		// No infinite behavior: every x ∈ L_ω = ∅ vacuously satisfies
		// Definition 4.2.
		return SafetyResult{Holds: true}, nil
	}
	preLP, err := pc.preProduct(ctx)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	if preLP.NumStates() == 0 {
		// L_ω ∩ P = ∅: its prefix limit is empty and inclusion is trivial.
		return SafetyResult{Holds: true}, nil
	}
	lsp := obs.StartSpan(rec, "lim(pre(L∩P))").
		Tag("paper", "Lemma 4.4: lim(pre(L∩P))").
		Int("in_states", int64(preLP.NumStates())).
		Int("in_transitions", int64(preLP.NumTransitions()))
	limPre, err := buchi.LimitOfAllAccepting(preLP)
	if err != nil {
		lsp.End()
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	buchi.Record(rec, lsp, "buchi.limit", limPre)
	notP, err := pc.prop.negation(ctx)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	isp := obs.StartSpan(rec, "L ∩ lim(pre(L∩P)) ⊆ P").
		Tag("paper", "Lemma 4.4: L ∩ lim(pre(L∩P)) ⊆ P").
		Int("lhs_states", int64(limPre.NumStates())).
		Int("negation_states", int64(notP.NumStates()))
	l, found, err := buchi.IntersectLassoCtx(ctx, limPre, notP)
	if err != nil {
		isp.Tag("aborted", "context").End()
		return SafetyResult{}, fmt.Errorf("relative safety: %w", err)
	}
	isp.End()
	if found {
		return SafetyResult{Holds: false, Violation: l}, nil
	}
	return SafetyResult{Holds: true}, nil
}

// SatisfactionResult is the outcome of a plain satisfaction check
// L_ω ⊆ P; Counterexample is a behavior outside P when it fails.
type SatisfactionResult struct {
	Holds          bool
	Counterexample word.Lasso
}

// Satisfies decides L_ω ⊆ P (Definition 3.2) directly, by on-the-fly
// emptiness of behaviors ∩ ¬P, reporting the negation construction and
// the emptiness check to ctx's recorder. Theorem 4.7 states this is
// equivalent to P being both a relative liveness and a relative safety
// property; the equivalence is exercised by the test suite.
func Satisfies(ctx context.Context, pc *PipelineCells) (SatisfactionResult, error) {
	if err := interrupt.Done(ctx); err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.Satisfies").
		Tag("paper", "Definition 3.2: L ⊆ P")
	defer sp.End()
	trimmed, behaviors, err := pc.sc.limits(ctx)
	if err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	if trimmed == nil {
		return SatisfactionResult{Holds: true}, nil
	}
	notP, err := pc.prop.negation(ctx)
	if err != nil {
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	isp := obs.StartSpan(rec, "L ∩ ¬P = ∅").
		Int("behavior_states", int64(behaviors.NumStates())).
		Int("negation_states", int64(notP.NumStates()))
	l, found, err := buchi.IntersectLassoCtx(ctx, behaviors, notP)
	if err != nil {
		isp.Tag("aborted", "context").End()
		return SatisfactionResult{}, fmt.Errorf("satisfaction: %w", err)
	}
	isp.End()
	if found {
		return SatisfactionResult{Holds: false, Counterexample: l}, nil
	}
	return SatisfactionResult{Holds: true}, nil
}

// SatisfiesViaConjunction decides satisfaction through Theorem 4.7: the
// property holds iff it is both a relative liveness and a relative
// safety property. Exposed as an alternative algorithm for
// cross-validation and ablation benchmarks.
func SatisfiesViaConjunction(sys *ts.System, p Property) (bool, error) {
	rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
	if err != nil {
		return false, err
	}
	if !rl.Holds {
		return false, nil
	}
	rs, err := RelativeSafety(context.Background(), NewPipelineCells(sys, p))
	if err != nil {
		return false, err
	}
	return rs.Holds, nil
}
