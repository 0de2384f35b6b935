package ltl

import (
	"fmt"

	"relive/internal/alphabet"
)

// This file implements the property transformation of Definition 7.4.
//
// The paper defines a mapping T on Σ'-normal-form formulas (Figure 5)
// that adapts a property of the abstract system — over the abstract
// alphabet Σ' — so that it can be interpreted on the concrete system
// under the canonical h-labeling λ_{hΣΣ'} (Definition 7.3), where
// concrete letters erased by the homomorphism satisfy exactly the ε
// proposition. T leaves pure Boolean structure untouched; the extension
// R̄ then replaces every maximal pure Boolean subformula ξ_b by
// (ε) U (ξ_b), making the evaluation "skip" erased letters.
//
// Figure 5 is an image in the source and its exact clauses are not
// recoverable from the text, so the temporal clauses are reconstructed
// here from the stated requirements (Lemma 7.5 and the proofs of
// Theorems 8.2/8.3). The reconstruction satisfies the strong, word-level
// form of Lemma 7.5:
//
//	for every x ∈ Σ^ω with h(x) defined:
//	    x, λ_{hΣΣ'} ⊨ R̄(η)   ⟺   h(x), λ_{Σ'} ⊨ η
//
// which implies the language-level statement of Lemma 7.5 for every
// L'_ω ⊆ h(Σ^ω), covering all uses in the paper (where L'_ω is always
// lim(h(L)) ⊆ h(lim(L)) by Lemma 8.1). To obtain the word-level
// equivalence, Boolean subformulas are anchored at the first non-erased
// position: the wrapper is (ε) U ((¬ε) ∧ ξ_b), distributed over the
// Boolean connectives (which is equivalent, because the first non-ε
// position of a word is unique):
//
//	R̄(p)      = (ε) U (p)                      for an atom p ∈ Σ'
//	R̄(¬p)     = (ε) U ((¬ε) ∧ ¬p)
//	R̄(true)   = true,  R̄(false) = false
//	R̄(ξ ∧ ζ)  = R̄(ξ) ∧ R̄(ζ)
//	R̄(ξ ∨ ζ)  = R̄(ξ) ∨ R̄(ζ)
//	R̄(○ξ)     = (ε) U ((¬ε) ∧ ○R̄(ξ))
//	R̄(ξ U ζ)  = R̄(ξ) U R̄(ζ)
//	R̄(ξ R ζ)  = R̄(ξ) R R̄(ζ)
//
// (For a positive atom the ¬ε conjunct is redundant — p can only hold at
// a non-erased position — so R̄(p) matches the paper's (ε) U (ξ_b)
// exactly.) Derived operators are expanded by Normalize first, so
// ◇ and □ are handled through their U/R definitions.

// EpsilonAtom returns the ε atomic proposition of Definition 7.3.
func EpsilonAtom() *Formula { return Atom(alphabet.EpsilonName) }

// Rbar transforms a Σ'-normal-form property η of an abstract system into
// the formula R̄(η) to be interpreted on the concrete system under the
// canonical h-labeling (Definition 7.4). The input is normalized first;
// it must not mention the ε proposition itself.
func Rbar(f *Formula) (*Formula, error) {
	nf := f.Normalize()
	for _, a := range nf.Atoms() {
		if a == alphabet.EpsilonName {
			return nil, fmt.Errorf("ltl: R̄ input already mentions the ε proposition")
		}
	}
	return rbar(nf), nil
}

func rbar(f *Formula) *Formula {
	eps := EpsilonAtom()
	switch f.Op {
	case OpTrue, OpFalse:
		return f
	case OpAtom:
		return Until(eps, f)
	case OpNot: // literal ¬p in normalized input
		return Until(eps, And(Not(eps), f))
	case OpAnd:
		return And(rbar(f.Left), rbar(f.Right))
	case OpOr:
		return Or(rbar(f.Left), rbar(f.Right))
	case OpNext:
		return Until(eps, And(Not(eps), Next(rbar(f.Left))))
	case OpUntil:
		return Until(rbar(f.Left), rbar(f.Right))
	case OpRelease:
		return Release(rbar(f.Left), rbar(f.Right))
	}
	panic(fmt.Sprintf("ltl: non-normalized formula in R̄: %s", f))
}
