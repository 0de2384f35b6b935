package core

import (
	"context"
	"fmt"

	"relive/internal/buchi"
	"relive/internal/interrupt"
	"relive/internal/nfa"
	"relive/internal/word"
)

// The checks in rliveness.go and rsafety.go take transition systems,
// whose behaviors are limit-closed. Definitions 4.1 and 4.2, however,
// are stated for arbitrary ω-languages, and Lemmas 4.3/4.4 hold in that
// generality; these entry points accept any ω-regular L_ω as a Büchi
// automaton. Two things genuinely need limit closure: Theorem 5.1, and
// RelativeSafety's shortcut for Lemma 4.4, which drops the intersection
// with L_ω because lim(pre(L_ω ∩ P)) ⊆ L_ω holds only when L_ω is
// limit-closed. RelativeSafetyOmega therefore keeps the product. Each
// entry point returns a wrapped context error once ctx is done, on
// entry and from inside its products, inclusions and emptiness search.

// RelativeLivenessOmega decides whether P is a relative liveness
// property of the arbitrary ω-regular language L_ω(lomega), via
// Lemma 4.3: pre(L_ω) = pre(L_ω ∩ P).
func RelativeLivenessOmega(ctx context.Context, lomega *buchi.Buchi, p Property) (LivenessResult, error) {
	if err := interrupt.Done(ctx); err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness (ω): %w", err)
	}
	ab := lomega.Alphabet()
	pa, err := p.Automaton(ctx, ab)
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness (ω): %w", err)
	}
	preL := lomega.PrefixNFA()
	preLP, _, err := buchi.PreProductNFACtx(ctx, lomega, pa)
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness (ω): %w", err)
	}
	ok, w, err := nfa.IncludedKernelCtx(ctx, preL, preLP)
	if err != nil {
		return LivenessResult{}, fmt.Errorf("relative liveness (ω): %w", err)
	}
	if ok {
		return LivenessResult{Holds: true}, nil
	}
	return LivenessResult{Holds: false, BadPrefix: w}, nil
}

// RelativeSafetyOmega decides whether P is a relative safety property
// of the arbitrary ω-regular language L_ω(lomega), via Lemma 4.4:
// L_ω ∩ lim(pre(L_ω ∩ P)) ⊆ P.
func RelativeSafetyOmega(ctx context.Context, lomega *buchi.Buchi, p Property) (SafetyResult, error) {
	if err := interrupt.Done(ctx); err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	ab := lomega.Alphabet()
	pa, err := p.Automaton(ctx, ab)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	preLP, _, err := buchi.PreProductNFACtx(ctx, lomega, pa)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	if preLP.NumStates() == 0 {
		return SafetyResult{Holds: true}, nil
	}
	limPre, err := buchi.LimitOfAllAccepting(preLP)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	notP, err := p.NegationAutomaton(ctx, ab)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	lhs, err := buchi.IntersectCtx(ctx, lomega, limPre)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	l, found, err := buchi.IntersectLassoCtx(ctx, lhs, notP)
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (ω): %w", err)
	}
	if found {
		return SafetyResult{Holds: false, Violation: l}, nil
	}
	return SafetyResult{Holds: true}, nil
}

// IsLimitClosed reports whether L_ω(lomega) is limit closed
// (L_ω = lim(pre(L_ω))), the precondition of Theorem 5.1. The witness
// is an ω-word in lim(pre(L_ω)) \ L_ω when the check fails.
func IsLimitClosed(ctx context.Context, lomega *buchi.Buchi) (bool, word.Lasso, error) {
	if err := interrupt.Done(ctx); err != nil {
		return false, word.Lasso{}, fmt.Errorf("limit closure: %w", err)
	}
	pre := lomega.PrefixNFA().Trim()
	if pre.NumStates() == 0 {
		return true, word.Lasso{}, nil // empty language is limit closed
	}
	limPre, err := buchi.LimitOfAllAccepting(pre)
	if err != nil {
		return false, word.Lasso{}, err
	}
	// L_ω ⊆ lim(pre(L_ω)) always; check the converse.
	ok, l, err := buchi.IncludedKernelCtx(ctx, limPre, lomega)
	if err != nil {
		return false, word.Lasso{}, fmt.Errorf("limit closure: %w", err)
	}
	if !ok {
		return false, l, nil
	}
	return true, word.Lasso{}, nil
}
