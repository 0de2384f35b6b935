package nfa

import "relive/internal/alphabet"

// SigmaStar returns the one-state NFA for Σ* over ab: an accepting
// initial state that loops on every letter.
func SigmaStar(ab *alphabet.Alphabet) *NFA {
	a := New(ab)
	q := a.AddState(true)
	a.SetInitial(q)
	for _, sym := range ab.Symbols() {
		a.AddTransition(q, sym, q)
	}
	return a
}
