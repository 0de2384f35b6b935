package nfa

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// single returns an NFA accepting exactly the one-letter word.
func single(ab *alphabet.Alphabet, name string) *NFA {
	a := New(ab)
	q0 := a.AddState(false)
	q1 := a.AddState(true)
	a.AddTransition(q0, ab.Symbol(name), q1)
	a.SetInitial(q0)
	return a
}

func TestConcat(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	cat := Concat(single(ab, "a"), single(ab, "b"))
	if !cat.Accepts(word.FromNames(ab, "a", "b")) {
		t.Error("a·b rejected")
	}
	for _, bad := range [][]string{{}, {"a"}, {"b"}, {"b", "a"}, {"a", "b", "a"}} {
		if cat.Accepts(word.FromNames(ab, bad...)) {
			t.Errorf("concat accepts %v", bad)
		}
	}
}

func TestStar(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	star := Star(Concat(single(ab, "a"), single(ab, "b")))
	for _, good := range [][]string{{}, {"a", "b"}, {"a", "b", "a", "b"}} {
		if !star.Accepts(word.FromNames(ab, good...)) {
			t.Errorf("(ab)* rejects %v", good)
		}
	}
	for _, bad := range [][]string{{"a"}, {"b", "a"}, {"a", "b", "a"}} {
		if star.Accepts(word.FromNames(ab, bad...)) {
			t.Errorf("(ab)* accepts %v", bad)
		}
	}
}

func TestReverse(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	rev := Reverse(endsWithAB(ab)) // reversal of Σ*ab is ba·Σ*
	if !rev.Accepts(word.FromNames(ab, "b", "a")) {
		t.Error("reverse rejects ba")
	}
	if !rev.Accepts(word.FromNames(ab, "b", "a", "b", "b")) {
		t.Error("reverse rejects babb")
	}
	if rev.Accepts(word.FromNames(ab, "a", "b")) {
		t.Error("reverse accepts ab")
	}
}

func TestQuickReverseInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	ab := alphabet.FromNames("a", "b")
	syms := ab.Symbols()
	for trial := 0; trial < 40; trial++ {
		a := New(ab)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			a.AddState(rng.Float64() < 0.5)
		}
		for i := 0; i < n; i++ {
			for _, sym := range syms {
				if rng.Float64() < 0.5 {
					a.AddTransition(State(i), sym, State(rng.Intn(n)))
				}
			}
		}
		a.SetInitial(State(rng.Intn(n)))
		rr := Reverse(Reverse(a))
		for k := 0; k < 30; k++ {
			w := make(word.Word, rng.Intn(6))
			for j := range w {
				w[j] = syms[rng.Intn(len(syms))]
			}
			if a.Accepts(w) != rr.Accepts(w) {
				t.Fatalf("trial %d: reverse∘reverse changed language on %s", trial, w.String(ab))
			}
			// And reversal semantics directly.
			rw := make(word.Word, len(w))
			for j := range w {
				rw[len(w)-1-j] = w[j]
			}
			if a.Accepts(w) != Reverse(a).Accepts(rw) {
				t.Fatalf("trial %d: Reverse wrong on %s", trial, w.String(ab))
			}
		}
	}
}

func TestDifference(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	diff := Difference(evenAs(ab), endsWithAB(ab))
	for _, w := range enumerate(ab, 6) {
		want := evenAs(ab).Accepts(w) && !endsWithAB(ab).Accepts(w)
		if got := diff.Accepts(w); got != want {
			t.Errorf("difference on %s = %v, want %v", w.String(ab), got, want)
		}
	}
}

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
