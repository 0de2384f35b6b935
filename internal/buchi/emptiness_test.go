package buchi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relive/internal/genbase"
)

// TestQuickIntersectEmptyMatchesMaterialized: the on-the-fly emptiness
// verdict must agree with materializing the product and reducing it.
func TestQuickIntersectEmptyMatchesMaterialized(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a, c := seedBuchi(s1), seedBuchi(s2)
		return IntersectEmpty(a, c) == product(a, c).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectLassoWitnessValid: a returned witness must be
// accepted by BOTH operands, checked through the materialized product
// with the lasso automaton (the pre-optimization membership oracle).
func TestQuickIntersectLassoWitnessValid(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a, c := seedBuchi(s1), seedBuchi(s2)
		l, ok, _ := IntersectLassoCtx(nil, a, c)
		if !ok {
			return true
		}
		inA := !product(a, LassoAutomaton(a.Alphabet(), l)).IsEmpty()
		inC := !product(c, LassoAutomaton(c.Alphabet(), l)).IsEmpty()
		return inA && inC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectEmptyFromMatchesRestart: starting the on-the-fly
// search from arbitrary state sets must agree with cloning both
// automata, re-rooting them there, and intersecting.
func TestQuickIntersectEmptyFromMatchesRestart(t *testing.T) {
	f := func(s1, s2 int64) bool {
		rng := rand.New(rand.NewSource(s1 ^ s2<<1))
		a, c := seedBuchi(s1), seedBuchi(s2)
		ainit := randomStateSet(rng, a.NumStates())
		cinit := randomStateSet(rng, c.NumStates())
		got := IntersectEmptyFrom(a, c, ainit, cinit)
		want := product(rerooted(a, ainit), rerooted(c, cinit)).IsEmpty()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIntersectEmptyPlainMode exercises the all-accepting ("plain
// product") mode of the explorer against the materialized plain product.
func TestIntersectEmptyPlainMode(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		a := seedBuchi(seed).DropAcceptance() // every state accepting
		c := seedBuchi(seed + 1000)
		want := product(a, c).IsEmpty()
		if got := IntersectEmpty(a, c); got != want {
			t.Fatalf("seed %d: plain-mode IntersectEmpty = %v, materialized = %v", seed, got, want)
		}
		l, ok, _ := IntersectLassoCtx(nil, a, c)
		if ok != !want {
			t.Fatalf("seed %d: IntersectLasso ok = %v, want %v", seed, ok, !want)
		}
		if ok {
			if !a.AcceptsLasso(l) || !c.AcceptsLasso(l) {
				t.Fatalf("seed %d: witness %v not accepted by both operands", seed, l)
			}
		}
	}
}

// TestIntersectEmptyDegenerate: empty automata and empty root sets are
// reported empty without exploration.
func TestIntersectEmptyDegenerate(t *testing.T) {
	ab := genbase.Letters(2)
	empty := New(ab)
	nonEmpty := seedBuchi(7)
	if !IntersectEmpty(empty, nonEmpty) || !IntersectEmpty(nonEmpty, empty) {
		t.Error("intersection with the empty automaton must be empty")
	}
	if !IntersectEmptyFrom(nonEmpty, nonEmpty, nil, []State{}) {
		t.Error("empty root set must yield an empty intersection")
	}
}

// randomStateSet draws a nonempty random subset of 0..n-1.
func randomStateSet(rng *rand.Rand, n int) []State {
	var out []State
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			out = append(out, State(i))
		}
	}
	if len(out) == 0 {
		out = append(out, State(rng.Intn(n)))
	}
	return out
}

// rerooted clones b with the initial states replaced, mirroring the
// restart helper the decision procedures used before IntersectEmptyFrom.
func rerooted(b *Buchi, initial []State) *Buchi {
	c := New(b.Alphabet())
	for i := 0; i < b.NumStates(); i++ {
		c.AddState(b.Accepting(State(i)))
	}
	for i := 0; i < b.NumStates(); i++ {
		for _, sym := range b.Alphabet().Symbols() {
			for _, t := range b.Succ(State(i), sym) {
				c.AddTransition(State(i), sym, t)
			}
		}
	}
	for _, s := range initial {
		c.SetInitial(s)
	}
	return c
}
