package core

import (
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/nfa"
	"relive/internal/word"
)

// This file implements the classical Alpern–Schneider decomposition
// ([3] in the paper) that Section 4 relativizes: every property is the
// intersection of a safety and a liveness property. The safety part is
// the topological closure cl(P) = lim(pre(P)); the liveness part is
// P ∪ ¬cl(P). The paper's Theorem 4.7 is the relative version of this
// fact, and Remark 1 recovers the classical notions by taking
// L_ω = Σ^ω — which is exactly how these functions are implemented.

// Decomposition is the Alpern–Schneider split of a property.
type Decomposition struct {
	// Safety is cl(P), the smallest safety property containing P.
	Safety *buchi.Buchi
	// Liveness is P ∪ ¬cl(P), a liveness property.
	Liveness *buchi.Buchi
}

// Closure returns the topological closure cl(P) = lim(pre(P)) of the
// property over ab: the smallest safety property containing it.
func Closure(p Property, ab *alphabet.Alphabet) (*buchi.Buchi, error) {
	pa, err := p.Automaton(ab)
	if err != nil {
		return nil, err
	}
	pre := pa.PrefixNFA()
	return buchi.Limit(pre), nil
}

// Decompose splits p into a safety and a liveness property over ab with
// P = Safety ∩ Liveness. The closure is built with the deterministic
// limit construction, so its complement is cheap (no rank-based
// blow-up).
func Decompose(p Property, ab *alphabet.Alphabet) (*Decomposition, error) {
	pa, err := p.Automaton(ab)
	if err != nil {
		return nil, err
	}
	closure, err := Closure(p, ab)
	if err != nil {
		return nil, err
	}
	notClosure, err := closure.ComplementDeterministic()
	if err != nil {
		return nil, fmt.Errorf("decompose: %w", err)
	}
	return &Decomposition{
		Safety:   closure,
		Liveness: buchi.Union(pa, notClosure),
	}, nil
}

// IsSafetyProperty reports whether p is a (classical) safety property
// over ab: P = cl(P). Since P ⊆ cl(P) always holds, only
// cl(P) ⊆ P is checked, against ¬P. The witness is a word in
// cl(P) \ P when the check fails.
func IsSafetyProperty(p Property, ab *alphabet.Alphabet) (bool, word.Lasso, error) {
	closure, err := Closure(p, ab)
	if err != nil {
		return false, word.Lasso{}, err
	}
	notP, err := p.NegationAutomaton(ab)
	if err != nil {
		return false, word.Lasso{}, err
	}
	l, found := buchi.IntersectLasso(closure, notP)
	if found {
		return false, l, nil
	}
	return true, word.Lasso{}, nil
}

// IsLivenessProperty reports whether p is a (classical) liveness
// property over ab: every finite word extends to a word in P,
// i.e. pre(P) = Σ*, a universality check on the route its size picks.
// The witness is a finite word with no extension in P when the check
// fails. By Remark 1 this coincides with relative liveness over the
// universal system.
func IsLivenessProperty(p Property, ab *alphabet.Alphabet) (bool, word.Word, error) {
	pa, err := p.Automaton(ab)
	if err != nil {
		return false, nil, err
	}
	ok, w := nfa.Universal(pa.PrefixNFA())
	if !ok {
		return false, w, nil
	}
	return true, nil, nil
}
