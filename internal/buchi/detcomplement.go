package buchi

import (
	"fmt"
)

// IsDeterministic reports whether the automaton has at most one initial
// state and at most one successor per (state, letter).
func (b *Buchi) IsDeterministic() bool {
	if len(b.initial) > 1 {
		return false
	}
	for _, m := range b.trans {
		for _, ts := range m {
			if len(ts) > 1 {
				return false
			}
		}
	}
	return true
}

// ComplementDeterministic complements a deterministic Büchi automaton
// with the classic two-copy construction, avoiding the 2^O(n log n)
// rank-based blow-up: the complement accepts a word iff the unique run
// either leaves the automaton or visits accepting states only finitely
// often. The result guesses the point after which no accepting state
// occurs and verifies it in a second, acceptance-free copy restricted
// to non-accepting states.
func (b *Buchi) ComplementDeterministic() (*Buchi, error) {
	if !b.IsDeterministic() {
		return nil, fmt.Errorf("buchi: automaton is not deterministic")
	}
	n := b.NumStates()
	out := New(b.ab)
	// Copy 1: tracks the run, never accepting. State i ↦ i.
	for i := 0; i < n; i++ {
		out.AddState(false)
	}
	// Copy 2: the tail without accepting states. State i ↦ n + i, only
	// built for non-accepting i.
	for i := 0; i < n; i++ {
		out.AddState(!b.accepting[i]) // accepting-copy states are unreachable junk otherwise
	}
	// Sink for words whose run leaves b: accepting (word rejected by b).
	sink := out.AddState(true)
	for _, sym := range b.ab.Symbols() {
		out.AddTransition(sink, sym, sink)
	}

	syms := b.ab.Symbols()
	for i := 0; i < n; i++ {
		for _, sym := range syms {
			ts := b.trans[i][sym]
			if len(ts) == 0 {
				// Run dies: the word is rejected by b, accepted here.
				out.AddTransition(State(i), sym, sink)
				if !b.accepting[i] {
					out.AddTransition(State(n+i), sym, sink)
				}
				continue
			}
			t := ts[0]
			out.AddTransition(State(i), sym, t)
			// Nondeterministic jump into the tail copy: guess that from
			// the next position no accepting state occurs.
			if !b.accepting[t] {
				out.AddTransition(State(i), sym, State(n+int(t)))
				if !b.accepting[i] {
					out.AddTransition(State(n+i), sym, State(n+int(t)))
				}
			}
		}
	}
	if len(b.initial) == 0 {
		// Empty automaton: complement is Σ^ω.
		u := UniversalAutomaton(b.ab)
		return u, nil
	}
	init := b.initial[0]
	out.SetInitial(init)
	if !b.accepting[init] {
		out.SetInitial(State(n + int(init)))
	}
	return out, nil
}
