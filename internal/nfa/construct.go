package nfa

import (
	"relive/internal/alphabet"
)

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

// Concat returns an NFA for L(a)·L(b): ε-transitions link a's accepting
// states to b's initial states.
func Concat(a, b *NFA) *NFA {
	out := a.Clone()
	for i := range out.accepting {
		out.accepting[i] = false
	}
	offset := State(out.NumStates())
	for i := 0; i < b.NumStates(); i++ {
		out.AddState(b.accepting[i])
	}
	for i := range b.trans {
		for sym, ts := range b.trans[i] {
			for _, t := range ts {
				out.AddTransition(State(i)+offset, sym, t+offset)
			}
		}
	}
	for i := 0; i < a.NumStates(); i++ {
		if !a.accepting[i] {
			continue
		}
		for _, bi := range b.initial {
			out.AddTransition(State(i), alphabet.Epsilon, bi+offset)
		}
	}
	return out
}

// Star returns an NFA for L(a)*: a fresh accepting initial state loops
// through the automaton.
func Star(a *NFA) *NFA {
	out := a.Clone()
	start := out.AddState(true)
	for _, i := range a.initial {
		out.AddTransition(start, alphabet.Epsilon, i)
	}
	for i := 0; i < a.NumStates(); i++ {
		if a.accepting[i] {
			out.AddTransition(State(i), alphabet.Epsilon, start)
		}
	}
	out.initial = []State{start}
	return out
}

// Reverse returns an NFA for the reversal of L(a): every transition is
// flipped, accepting states become initial and vice versa.
func Reverse(a *NFA) *NFA {
	out := New(a.ab)
	for i := 0; i < a.NumStates(); i++ {
		acc := false
		for _, ini := range a.initial {
			if ini == State(i) {
				acc = true
				break
			}
		}
		out.AddState(acc)
	}
	for i := range a.trans {
		for sym, ts := range a.trans[i] {
			for _, t := range ts {
				out.AddTransition(t, sym, State(i))
			}
		}
	}
	for i, acc := range a.accepting {
		if acc {
			out.SetInitial(State(i))
		}
	}
	return out
}

// Difference returns an NFA for L(a) \ L(b).
func Difference(a, b *NFA) *NFA {
	return Intersect(a, b.Determinize().Complement().ToNFA())
}
