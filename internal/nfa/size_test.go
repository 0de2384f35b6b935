package nfa

import (
	"testing"

	"relive/internal/alphabet"
)

func TestNumTransitionsAndAccepting(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := New(ab)
	s0 := a.AddState(true)
	s1 := a.AddState(false)
	if a.NumTransitions() != 0 {
		t.Errorf("fresh NFA has %d transitions, want 0", a.NumTransitions())
	}
	sa, _ := ab.Lookup("a")
	sb, _ := ab.Lookup("b")
	a.AddTransition(s0, sa, s1)
	a.AddTransition(s1, sb, s0)
	a.AddTransition(s0, alphabet.Epsilon, s1) // ε counts too
	if got := a.NumTransitions(); got != 3 {
		t.Errorf("NumTransitions = %d, want 3", got)
	}
	a.AddTransition(s0, sa, s1) // duplicate is ignored
	if got := a.NumTransitions(); got != 3 {
		t.Errorf("NumTransitions after duplicate = %d, want 3", got)
	}
	if !a.Accepting(s0) || a.Accepting(s1) {
		t.Errorf("accepting = (%v, %v), want (true, false)", a.Accepting(s0), a.Accepting(s1))
	}
	a.SetAccepting(s1, true)
	if !a.Accepting(s1) {
		t.Error("SetAccepting did not stick")
	}
}
