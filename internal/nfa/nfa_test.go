package nfa

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// evenAs returns an NFA over {a,b} accepting words with an even number
// of a's (actually a DFA in NFA clothing).
func evenAs(ab *alphabet.Alphabet) *NFA {
	a := New(ab)
	even := a.AddState(true)
	odd := a.AddState(false)
	sa, sb := ab.Symbol("a"), ab.Symbol("b")
	a.AddTransition(even, sa, odd)
	a.AddTransition(odd, sa, even)
	a.AddTransition(even, sb, even)
	a.AddTransition(odd, sb, odd)
	a.SetInitial(even)
	return a
}

// endsWithAB returns an NFA accepting words ending in "ab".
func endsWithAB(ab *alphabet.Alphabet) *NFA {
	a := New(ab)
	q0 := a.AddState(false)
	q1 := a.AddState(false)
	q2 := a.AddState(true)
	sa, sb := ab.Symbol("a"), ab.Symbol("b")
	a.AddTransition(q0, sa, q0)
	a.AddTransition(q0, sb, q0)
	a.AddTransition(q0, sa, q1)
	a.AddTransition(q1, sb, q2)
	a.SetInitial(q0)
	return a
}

func enumerate(ab *alphabet.Alphabet, maxLen int) []word.Word {
	syms := ab.Symbols()
	out := []word.Word{{}}
	frontier := []word.Word{{}}
	for l := 1; l <= maxLen; l++ {
		var next []word.Word
		for _, w := range frontier {
			for _, sym := range syms {
				nw := append(w.Clone(), sym)
				next = append(next, nw)
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

func TestAcceptsEvenAs(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := evenAs(ab)
	for _, w := range enumerate(ab, 6) {
		count := 0
		for _, s := range w {
			if ab.Name(s) == "a" {
				count++
			}
		}
		if got, want := a.Accepts(w), count%2 == 0; got != want {
			t.Errorf("Accepts(%s) = %v, want %v", w.String(ab), got, want)
		}
	}
}

func TestEpsilonClosureAndRemoval(t *testing.T) {
	ab := alphabet.FromNames("a")
	a := New(ab)
	q0 := a.AddState(false)
	q1 := a.AddState(false)
	q2 := a.AddState(true)
	sa := ab.Symbol("a")
	a.AddTransition(q0, alphabet.Epsilon, q1)
	a.AddTransition(q1, sa, q2)
	a.AddTransition(q2, alphabet.Epsilon, q0)
	a.SetInitial(q0)

	if !a.HasEpsilon() {
		t.Fatal("HasEpsilon = false")
	}
	cl := a.EpsilonClosure([]State{q0})
	if len(cl) != 2 {
		t.Errorf("closure of q0 = %v, want {q0,q1}", cl)
	}
	// Language: a (a)* i.e. a+
	e := a.RemoveEpsilon()
	if e.HasEpsilon() {
		t.Error("RemoveEpsilon left ε-transitions")
	}
	for _, w := range enumerate(ab, 5) {
		want := len(w) >= 1
		if got := e.Accepts(w); got != want {
			t.Errorf("ε-free Accepts(%s) = %v, want %v", w.String(ab), got, want)
		}
		if got := a.Accepts(w); got != want {
			t.Errorf("original Accepts(%s) = %v, want %v", w.String(ab), got, want)
		}
	}
}

func TestDeterminizeAgrees(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := endsWithAB(ab)
	d := a.Determinize()
	for _, w := range enumerate(ab, 7) {
		if a.Accepts(w) != d.Accepts(w) {
			t.Errorf("NFA and DFA disagree on %s", w.String(ab))
		}
	}
}

func TestMinimizeEndsWithAB(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	m := endsWithAB(ab).Determinize().Minimize()
	if m.NumStates() != 3 {
		t.Errorf("minimal DFA for Σ*ab has %d states, want 3", m.NumStates())
	}
	for _, w := range enumerate(ab, 7) {
		want := endsWithAB(ab).Accepts(w)
		if got := m.Accepts(w); got != want {
			t.Errorf("minimized Accepts(%s) = %v, want %v", w.String(ab), got, want)
		}
	}
}

func TestComplement(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := evenAs(ab)
	c := a.Determinize().Complement()
	for _, w := range enumerate(ab, 6) {
		if a.Accepts(w) == c.Accepts(w) {
			t.Errorf("complement agrees with original on %s", w.String(ab))
		}
	}
}

func TestTrimAndIsEmpty(t *testing.T) {
	ab := alphabet.FromNames("a")
	a := New(ab)
	q0 := a.AddState(false)
	q1 := a.AddState(false) // dead: accepting unreachable from here
	q2 := a.AddState(true)  // unreachable
	_ = q2
	sa := ab.Symbol("a")
	a.AddTransition(q0, sa, q1)
	a.SetInitial(q0)
	if !a.IsEmpty() {
		t.Error("IsEmpty = false for automaton with unreachable accepting state")
	}
	trimmed := a.Trim()
	if trimmed.NumStates() != 0 {
		t.Errorf("Trim left %d states, want 0", trimmed.NumStates())
	}
	if _, ok := a.ShortestAccepted(); ok {
		t.Error("ShortestAccepted on empty language succeeded")
	}
}

func TestShortestAccepted(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := endsWithAB(ab)
	w, ok := a.ShortestAccepted()
	if !ok || w.String(ab) != "a·b" {
		t.Errorf("ShortestAccepted = %v, %v; want a·b", w.String(ab), ok)
	}
}

// TestShortestAcceptedDeterministic: ShortestAccepted expands
// successors in symbol order, so repeated calls return one word, and
// that word is as short as the shortest accepted word enumeration finds.
func TestShortestAcceptedDeterministic(t *testing.T) {
	ab := alphabet.FromNames("a", "b", "c", "d")
	a := New(ab)
	s := a.AddState(false)
	x := a.AddState(true)
	for _, sym := range ab.Symbols() {
		a.AddTransition(s, sym, x)
	}
	a.SetInitial(s)
	for call := 0; call < 100; call++ {
		if w, ok := a.ShortestAccepted(); !ok || w.String(ab) != "a" {
			t.Fatalf("call %d: ShortestAccepted = %s, %v; want a", call, w.String(ab), ok)
		}
	}

	// A word of length n-1 or less reaches every reachable state of an
	// n-state automaton, so enumerating up to 6 letters finds the
	// shortest accepted word of any 1- to 6-state automaton, or shows
	// its language is empty.
	ab2 := alphabet.FromNames("a", "b")
	words := enumerate(ab2, 6) // in order of length
	rng := rand.New(rand.NewSource(2502))
	for trial := 0; trial < 300; trial++ {
		a := randomEpsNFA(rng, ab2, 1+rng.Intn(6))
		want := -1
		for _, w := range words {
			if a.Accepts(w) {
				want = len(w)
				break
			}
		}
		w, ok := a.ShortestAccepted()
		switch {
		case ok != (want >= 0):
			t.Fatalf("trial %d: ShortestAccepted ok = %v, enumeration found length %d", trial, ok, want)
		case ok && (len(w) != want || !a.Accepts(w)):
			t.Fatalf("trial %d: ShortestAccepted = %s (accepted %v), shortest accepted length %d",
				trial, w.String(ab2), a.Accepts(w), want)
		}
	}
}

func TestPrefixLanguage(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	// L = {ab}: pre(L) = {ε, a, ab}.
	a := New(ab)
	q0 := a.AddState(false)
	q1 := a.AddState(false)
	q2 := a.AddState(true)
	a.AddTransition(q0, ab.Symbol("a"), q1)
	a.AddTransition(q1, ab.Symbol("b"), q2)
	a.SetInitial(q0)
	p := a.PrefixLanguage()
	wants := map[string]bool{"": true, "a": true, "ab": true, "b": false, "aa": false, "abb": false}
	for s, want := range wants {
		w := word.Word{}
		for _, r := range s {
			w = append(w, ab.Symbol(string(r)))
		}
		if got := p.Accepts(w); got != want {
			t.Errorf("pre(L) accepts %q = %v, want %v", s, got, want)
		}
	}
	if ok, _ := p.IsPrefixClosed(); !ok {
		t.Error("pre(L) not prefix-closed")
	}
	if ok, _ := a.IsPrefixClosed(); ok {
		t.Error("{ab} reported prefix-closed")
	}
}

func TestIntersectUnion(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := evenAs(ab)
	b := endsWithAB(ab)
	inter := Intersect(a, b)
	for _, w := range enumerate(ab, 7) {
		wa, wb := a.Accepts(w), b.Accepts(w)
		if got := inter.Accepts(w); got != (wa && wb) {
			t.Errorf("Intersect on %s = %v, want %v", w.String(ab), got, wa && wb)
		}
	}
}

func TestIncludedWitness(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := evenAs(ab)
	b := endsWithAB(ab)
	ok, w, _ := IncludedCtx(nil, a, b)
	if ok {
		t.Fatal("evenAs ⊆ endsWithAB reported true")
	}
	if !a.Accepts(w) || b.Accepts(w) {
		t.Errorf("witness %s not in L(a)\\L(b)", w.String(ab))
	}
	// Inclusion that holds: L ⊆ pre(L)∪L trivially, use L ⊆ L.
	if ok, _, _ := IncludedCtx(nil, a, a); !ok {
		t.Error("L ⊆ L failed")
	}
	// {ab} ⊆ Σ*ab
	sing := New(ab)
	q0 := sing.AddState(false)
	q1 := sing.AddState(false)
	q2 := sing.AddState(true)
	sing.AddTransition(q0, ab.Symbol("a"), q1)
	sing.AddTransition(q1, ab.Symbol("b"), q2)
	sing.SetInitial(q0)
	if ok, w, _ := IncludedCtx(nil, sing, b); !ok {
		t.Errorf("{ab} ⊆ Σ*ab failed with witness %v", w.String(ab))
	}
}

func TestLanguageEqual(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := endsWithAB(ab)
	d := a.Determinize().Minimize().ToNFA()
	if ok, w := LanguageEqual(a, d); !ok {
		t.Errorf("language changed by determinize+minimize, witness %s", w.String(ab))
	}
	if ok, _ := LanguageEqual(a, evenAs(ab)); ok {
		t.Error("distinct languages reported equal")
	}
}

func TestEquivalentDFA(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	d1 := endsWithAB(ab).Determinize()
	d2 := d1.Minimize()
	if !EquivalentDFA(d1, d2) {
		t.Error("DFA not equivalent to its minimization")
	}
	d3 := evenAs(ab).Determinize()
	if EquivalentDFA(d1, d3) {
		t.Error("distinct DFAs reported equivalent")
	}
}

func TestHasMaximalWords(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	// {ab} has maximal word ab.
	sing := New(ab)
	q0 := sing.AddState(false)
	q1 := sing.AddState(false)
	q2 := sing.AddState(true)
	sing.AddTransition(q0, ab.Symbol("a"), q1)
	sing.AddTransition(q1, ab.Symbol("b"), q2)
	sing.SetInitial(q0)
	has, w := sing.HasMaximalWords()
	if !has || w.String(ab) != "a·b" {
		t.Errorf("HasMaximalWords({ab}) = %v, %v", has, w.String(ab))
	}
	// Σ* has no maximal words.
	if has, _ := evenAs(ab).MarkAllAccepting().HasMaximalWords(); has {
		t.Error("even-a language with all states accepting has maximal words?")
	}
}

// TestQuickDeterminizeMinimize cross-checks the whole DFA pipeline against
// the NFA on random automata and sampled words.
func TestQuickDeterminizeMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ab := alphabet.FromNames("a", "b")
	syms := ab.Symbols()
	for trial := 0; trial < 60; trial++ {
		a := randomEpsNFA(rng, ab, 1+rng.Intn(6))
		d := a.Determinize()
		m := d.Minimize()
		for k := 0; k < 50; k++ {
			w := make(word.Word, rng.Intn(8))
			for j := range w {
				w[j] = syms[rng.Intn(len(syms))]
			}
			ra := a.Accepts(w)
			if d.Accepts(w) != ra {
				t.Fatalf("trial %d: determinize disagrees on %s", trial, w.String(ab))
			}
			if m.Accepts(w) != ra {
				t.Fatalf("trial %d: minimize disagrees on %s", trial, w.String(ab))
			}
		}
		if !EquivalentDFA(d, m) {
			t.Fatalf("trial %d: EquivalentDFA(d, minimize(d)) = false", trial)
		}
	}
}

// TestQuickComplementPartition checks L and its complement partition Σ*.
func TestQuickComplementPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ab := alphabet.FromNames("a", "b", "c")
	syms := ab.Symbols()
	for trial := 0; trial < 40; trial++ {
		a := New(ab)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			a.AddState(rng.Float64() < 0.5)
		}
		for i := 0; i < n; i++ {
			for _, sym := range syms {
				if rng.Float64() < 0.6 {
					a.AddTransition(State(i), sym, State(rng.Intn(n)))
				}
			}
		}
		a.SetInitial(0)
		c := a.Determinize().Complement()
		for k := 0; k < 40; k++ {
			w := make(word.Word, rng.Intn(7))
			for j := range w {
				w[j] = syms[rng.Intn(len(syms))]
			}
			if a.Accepts(w) == c.Accepts(w) {
				t.Fatalf("trial %d: complement not disjoint/covering on %s", trial, w.String(ab))
			}
		}
	}
}

// randomEpsNFA builds an n-state automaton with initial state 0, each
// state accepting with probability 0.4, up to two transitions per
// (state, letter) and an ε-move from a state with probability 0.2.
func randomEpsNFA(rng *rand.Rand, ab *alphabet.Alphabet, n int) *NFA {
	a := New(ab)
	for i := 0; i < n; i++ {
		a.AddState(rng.Float64() < 0.4)
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.5 {
					a.AddTransition(State(i), sym, State(rng.Intn(n)))
				}
			}
		}
		if rng.Float64() < 0.2 {
			a.AddTransition(State(i), alphabet.Epsilon, State(rng.Intn(n)))
		}
	}
	a.SetInitial(0)
	return a
}
