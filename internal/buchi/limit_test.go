package buchi

import (
	"math/rand"
	"slices"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
	"relive/internal/nfa"
)

// chainedLimit is the chain limitOfPrefixClosedUnchecked fuses, kept as
// the differential reference: remove ε-moves, trim, remove dead ends on
// the trimmed automaton, then copy the survivors into a Büchi automaton
// that accepts with every state.
func chainedLimit(a *nfa.NFA) *Buchi {
	e := a
	if e.HasEpsilon() {
		e = e.RemoveEpsilon()
	}
	e = e.Trim()
	n := e.NumStates()
	ce := e.Compiled()
	g := ce.Graph()
	rev := g.Reverse()
	alive := make([]bool, n)
	deg := make([]int32, n)
	var queue []int32
	for i := 0; i < n; i++ {
		alive[i] = true
		deg[i] = int32(len(g.Succ(i)))
		if deg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		alive[v] = false
		for _, u := range rev.Succ(int(v)) {
			deg[u]--
			if deg[u] == 0 && alive[u] {
				queue = append(queue, u)
			}
		}
	}
	b := New(a.Alphabet())
	keep := make([]State, n)
	for i := range keep {
		keep[i] = -1
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			keep[i] = b.AddState(true)
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		for _, sym := range e.Alphabet().Symbols() {
			for _, t := range ce.Row(nfa.State(i), sym) {
				if keep[t] >= 0 {
					b.AddTransition(keep[i], sym, keep[t])
				}
			}
		}
	}
	for _, s := range e.Initial() {
		if keep[s] >= 0 {
			b.SetInitial(keep[s])
		}
	}
	return b
}

// sameBuchi asserts got and want are identical automata: same state
// count, same accepting flags, same initial list, and the same
// transition row for every (state, symbol) pair in order. It also
// asserts that got's cached CSR is the one compile would build from its
// transition maps.
func sameBuchi(t *testing.T, trial int, got, want *Buchi) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("trial %d: state count %d, want %d\ngot:\n%v\nwant:\n%v",
			trial, got.NumStates(), want.NumStates(), got, want)
	}
	if gi, wi := got.Initial(), want.Initial(); !slices.Equal(gi, wi) {
		t.Fatalf("trial %d: initial %v, want %v", trial, gi, wi)
	}
	for s := 0; s < got.NumStates(); s++ {
		if got.Accepting(State(s)) != want.Accepting(State(s)) {
			t.Fatalf("trial %d: accepting(%d) diverges", trial, s)
		}
		if len(got.trans[s]) != len(want.trans[s]) {
			t.Fatalf("trial %d: state %d has rows for %d symbols, want %d", trial, s, len(got.trans[s]), len(want.trans[s]))
		}
		for _, sym := range got.Alphabet().Symbols() {
			if gr, wr := got.Succ(State(s), sym), want.Succ(State(s), sym); !slices.Equal(gr, wr) {
				t.Fatalf("trial %d: row (%d, %v): %v, want %v", trial, s, sym, gr, wr)
			}
		}
	}
	if c := got.csr.Load(); c != nil {
		fresh := compile(got)
		if c.n != fresh.n || c.syms != fresh.syms || !slices.Equal(c.off, fresh.off) ||
			!slices.Equal(c.dst, fresh.dst) || !slices.Equal(c.stateOff, fresh.stateOff) {
			t.Fatalf("trial %d: cached CSR differs from the compiled transition maps", trial)
		}
	}
}

// randomLimitInput draws an NFA of up to 12 states: all-accepting or
// with mixed acceptance, with or without ε-moves, and with one to three
// initial states (repeats allowed).
func randomLimitInput(rng *rand.Rand, ab *alphabet.Alphabet, allAccepting, epsilon bool) *nfa.NFA {
	n := 1 + rng.Intn(12)
	a := nfa.New(ab)
	for i := 0; i < n; i++ {
		a.AddState(allAccepting || rng.Float64() < 0.5)
	}
	density := 0.1 + 0.3*rng.Float64()
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 3; k++ {
				if rng.Float64() < density {
					a.AddTransition(nfa.State(i), sym, nfa.State(rng.Intn(n)))
				}
			}
		}
		if epsilon && rng.Float64() < 0.3 {
			a.AddTransition(nfa.State(i), alphabet.Epsilon, nfa.State(rng.Intn(n)))
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		a.SetInitial(nfa.State(rng.Intn(n)))
	}
	return a
}

// TestLimitMatchesChainedReference pins the one-pass limit to the chain
// it replaced, structurally, on 3,000 random NFAs covering every mix of
// all-accepting or mixed acceptance and with or without ε-moves.
func TestLimitMatchesChainedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shapes := [4]int{}
	for trial := 0; trial < 3000; trial++ {
		ab := genbase.Letters(2 + trial%2)
		allAccepting, epsilon := trial%4 < 2, trial%2 == 0
		a := randomLimitInput(rng, ab, allAccepting, epsilon)
		want := chainedLimit(a)
		got := limitOfPrefixClosedUnchecked(a)
		sameBuchi(t, trial, got, want)
		if got.NumStates() > 0 {
			shapes[trial%4]++
		}
	}
	for i, c := range shapes {
		if c < 200 {
			t.Errorf("shape %d: only %d of 750 inputs had a nonempty limit", i, c)
		}
	}
}

// TestLimitOfAllAcceptingOutputMutable: the one-pass output shares one
// backing array among its rows and carries a prebuilt CSR; adding a
// transition afterwards must neither leak into a neighbouring row nor
// leave the CSR stale.
func TestLimitOfAllAcceptingOutputMutable(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	a := nfa.New(ab)
	for i := 0; i < 3; i++ {
		a.AddState(true)
	}
	sa, sb := ab.Symbols()[0], ab.Symbols()[1]
	a.AddTransition(0, sa, 1)
	a.AddTransition(0, sb, 2)
	a.AddTransition(1, sa, 0)
	a.AddTransition(2, sa, 0)
	a.SetInitial(0)
	b, err := LimitOfAllAccepting(a)
	if err != nil {
		t.Fatal(err)
	}
	b.AddTransition(0, sa, 2)
	if got := b.Succ(0, sb); len(got) != 1 || got[0] != 2 {
		t.Fatalf("row (0, b) = %v after appending to row (0, a), want [2]", got)
	}
	if got := b.Succ(1, sa); len(got) != 1 || got[0] != 0 {
		t.Fatalf("row (1, a) = %v after appending to row (0, a), want [0]", got)
	}
	if got := b.compiled().row(0, sa); len(got) != 2 || got[1] != 2 {
		t.Fatalf("compiled row (0, a) = %v, want [1 2]", got)
	}
}
