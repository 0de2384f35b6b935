package core

import (
	"fmt"

	"relive/internal/buchi"
	"relive/internal/ts"
	"relive/internal/word"
)

// This file implements the topological characterizations of Section 4:
// in the Cantor topology over Σ^ω (Definition 4.8), a property P is a
// relative liveness property of L_ω iff L_ω ∩ P is dense in L_ω
// (Lemma 4.9), and a relative safety property iff L_ω ∩ P is closed in
// L_ω (Lemma 4.10). Density and closedness of ω-regular sets reduce to
// exactly the prefix conditions the main checkers already decide; the
// functions here expose them in topological vocabulary, plus witness
// utilities phrased in terms of the metric.

// DenseIn decides whether L_ω(sub) is dense in L_ω(sup) in the Cantor
// topology: every x ∈ sup is a limit of points of sub, equivalently
// every finite prefix of sup extends to a word of sub. On failure the
// witness is a prefix of sup with no extension in sub.
func DenseIn(sub, sup *buchi.Buchi) (bool, word.Word) {
	// Density ⟺ pre(sup) ⊆ pre(sub).
	res, _ := MachineClosed(nil, sup, sub)
	return res.Holds, res.BadPrefix
}

// ClosedIn decides whether L_ω(sub) is closed in L_ω(sup): every point
// of sup that is a limit of points of sub belongs to sub. The limit
// points of sub are lim(pre(sub)); the check is
// sup ∩ lim(pre(sub)) ⊆ sub. The caller supplies relComplement, an
// automaton with sup ∩ L_ω(relComplement) = sup \ sub — typically much
// smaller than a full Büchi complement of sub (for sub = behaviors ∩ P
// it is just ¬P). The returned lasso witnesses a violating limit point.
func ClosedIn(sub, sup, relComplement *buchi.Buchi) (bool, word.Lasso, error) {
	preSub := sub.PrefixNFA().Trim()
	if preSub.NumStates() == 0 {
		return true, word.Lasso{}, nil // sub empty: trivially closed
	}
	limPre, err := buchi.LimitOfAllAccepting(preSub)
	if err != nil {
		return false, word.Lasso{}, fmt.Errorf("closedness: %w", err)
	}
	// A nil ctx never cancels, so neither call can fail.
	limitPoints, _ := buchi.IntersectCtx(nil, sup, limPre)
	l, found, _ := buchi.IntersectLassoCtx(nil, limitPoints, relComplement)
	if found {
		return false, l, nil
	}
	return true, word.Lasso{}, nil
}

// RelativeLivenessTopological decides relative liveness through
// Lemma 4.9: P is a relative liveness property of the behaviors iff
// behaviors ∩ P is dense in the behaviors. A fourth independent route
// to the same verdict.
func RelativeLivenessTopological(sys *ts.System, p Property) (LivenessResult, error) {
	trimmed, err := sys.Trim()
	if err != nil {
		return LivenessResult{Holds: true}, nil
	}
	behaviors, err := trimmed.Behaviors()
	if err != nil {
		return LivenessResult{}, fmt.Errorf("topological liveness: %w", err)
	}
	pa, err := p.Automaton(nil, sys.Alphabet())
	if err != nil {
		return LivenessResult{}, fmt.Errorf("topological liveness: %w", err)
	}
	lp, _ := buchi.IntersectCtx(nil, behaviors, pa) // a nil ctx never cancels
	dense, w := DenseIn(lp, behaviors)
	return LivenessResult{Holds: dense, BadPrefix: w}, nil
}

// RelativeSafetyTopological decides relative safety through Lemma 4.10:
// P is a relative safety property of the behaviors iff behaviors ∩ P is
// closed in the behaviors.
func RelativeSafetyTopological(sys *ts.System, p Property) (SafetyResult, error) {
	trimmed, err := sys.Trim()
	if err != nil {
		return SafetyResult{Holds: true}, nil
	}
	behaviors, err := trimmed.Behaviors()
	if err != nil {
		return SafetyResult{}, fmt.Errorf("topological safety: %w", err)
	}
	pa, err := p.Automaton(nil, sys.Alphabet())
	if err != nil {
		return SafetyResult{}, fmt.Errorf("topological safety: %w", err)
	}
	notP, err := p.NegationAutomaton(nil, sys.Alphabet())
	if err != nil {
		return SafetyResult{}, fmt.Errorf("topological safety: %w", err)
	}
	// Within the behaviors, the complement of behaviors ∩ P is ¬P.
	lp, _ := buchi.IntersectCtx(nil, behaviors, pa) // a nil ctx never cancels
	closed, l, err := ClosedIn(lp, behaviors, notP)
	if err != nil {
		return SafetyResult{}, err
	}
	return SafetyResult{Holds: closed, Violation: l}, nil
}
