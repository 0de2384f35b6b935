package nfa

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
)

// TestMinimizeIsMinimal checks Moore's Minimize against the definition
// of the minimal (partial, trim) DFA on random NFAs with ε-moves: it
// accepts the input's language, every state is reachable, and no two
// states have the same residual language. The empty language minimizes
// to no states at all.
func TestMinimizeIsMinimal(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	if m := NewDFA(ab).Minimize(); m.NumStates() != 0 {
		t.Fatalf("minimal empty DFA has %d states", m.NumStates())
	}
	rerooted := func(d *DFA, s State) *DFA {
		c := d.Clone()
		c.SetInitial(s)
		return c
	}
	rng := rand.New(rand.NewSource(2503))
	largest := 0
	for trial := 0; trial < 250; trial++ {
		d := randomEpsNFA(rng, ab, 1+rng.Intn(8)).Determinize()
		m := d.Minimize()
		if !EquivalentDFA(d, m) {
			t.Fatalf("trial %d: minimized DFA changed the language", trial)
		}
		n := m.NumStates()
		largest = max(largest, n)
		if n == 0 {
			continue
		}
		seen := make([]bool, n)
		seen[m.Initial()] = true
		queue := []State{m.Initial()}
		for i := 0; i < len(queue); i++ {
			for _, sym := range ab.Symbols() {
				if to, ok := m.Delta(queue[i], sym); ok && !seen[to] {
					seen[to] = true
					queue = append(queue, to)
				}
			}
		}
		if len(queue) != n {
			t.Fatalf("trial %d: %d of %d states reachable", trial, len(queue), n)
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if EquivalentDFA(rerooted(m, State(p)), rerooted(m, State(q))) {
					t.Fatalf("trial %d: states %d and %d of the minimized DFA are equivalent", trial, p, q)
				}
			}
		}
	}
	t.Logf("largest minimal DFA: %d states", largest)
}
