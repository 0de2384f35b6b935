package buchi

import (
	"math/rand"
	"strings"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
	"relive/internal/nfa"
)

// detInfA returns a deterministic Büchi automaton for "infinitely many
// a" over {a,b}.
func detInfA(ab *alphabet.Alphabet) *Buchi {
	b := New(ab)
	q0 := b.AddState(false)
	q1 := b.AddState(true)
	sa, _ := ab.Lookup("a")
	sb, _ := ab.Lookup("b")
	b.AddTransition(q0, sb, q0)
	b.AddTransition(q0, sa, q1)
	b.AddTransition(q1, sa, q1)
	b.AddTransition(q1, sb, q0)
	b.SetInitial(q0)
	return b
}

func TestIsDeterministic(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	if !detInfA(ab).IsDeterministic() {
		t.Error("deterministic automaton not recognized")
	}
	nd := detInfA(ab)
	sa, _ := ab.Lookup("a")
	nd.AddTransition(0, sa, 0) // second a-successor of q0
	if nd.IsDeterministic() {
		t.Error("nondeterministic automaton not recognized")
	}
	multi := New(ab)
	multi.SetInitial(multi.AddState(true))
	multi.SetInitial(multi.AddState(true))
	if multi.IsDeterministic() {
		t.Error("two initial states should not count as deterministic")
	}
}

func TestComplementDeterministicAgainstRankBased(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	ab := genbase.Letters(2)
	b := detInfA(ab)
	c1, err := b.ComplementDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := b.Complement()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		l := genbase.Lasso(rng, ab, 4, 4)
		want := !b.AcceptsLasso(l)
		if c1.AcceptsLasso(l) != want {
			t.Errorf("two-copy complement wrong on %s", l.String(ab))
		}
		if c2.AcceptsLasso(l) != want {
			t.Errorf("rank-based complement wrong on %s", l.String(ab))
		}
	}
}

func TestComplementDeterministicPartialRuns(t *testing.T) {
	// Partial deterministic automaton: only a·a·... accepted; any b
	// kills the run, so the complement accepts everything with a b.
	ab := alphabet.FromNames("a", "b")
	b := New(ab)
	q := b.AddState(true)
	sa, _ := ab.Lookup("a")
	b.AddTransition(q, sa, q)
	b.SetInitial(q)
	c, err := b.ComplementDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	if c.AcceptsLasso(lasso(ab, "", "a")) {
		t.Error("complement accepts a^ω")
	}
	if !c.AcceptsLasso(lasso(ab, "a", "b")) {
		t.Error("complement rejects a·b^ω")
	}
	if !c.AcceptsLasso(lasso(ab, "", "ba")) {
		t.Error("complement rejects (ba)^ω")
	}
}

// TestComplementAuto complements a deterministic and a
// nondeterministic automaton for "infinitely many a": Complement, the
// one entry for every input, on both, and ComplementDeterministic,
// which Decompose calls on its deterministic closures, on the first.
func TestComplementAuto(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	det := detInfA(ab)
	nd := infManyA(ab)
	sa, _ := ab.Lookup("a")
	nd.AddTransition(0, sa, 0)
	if nd.IsDeterministic() {
		t.Fatal("nondeterministic input reported deterministic")
	}
	for _, tc := range []struct {
		name string
		run  func() (*Buchi, error)
	}{
		{"ComplementDeterministic(det)", det.ComplementDeterministic},
		{"Complement(det)", det.Complement},
		{"Complement(nondet)", nd.Complement},
	} {
		c, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.AcceptsLasso(lasso(ab, "", "a")) || !c.AcceptsLasso(lasso(ab, "", "b")) {
			t.Errorf("%s: wrong on a^ω or b^ω", tc.name)
		}
	}
}

func TestComplementDeterministicEmpty(t *testing.T) {
	ab := alphabet.FromNames("a")
	empty := New(ab)
	c, err := empty.ComplementDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	if !c.AcceptsLasso(lasso(ab, "", "a")) {
		t.Error("complement of empty automaton rejects a^ω")
	}
}

func TestAccessorsAndString(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	b := detInfA(ab)
	if len(b.Initial()) != 1 || b.Initial()[0] != 0 {
		t.Errorf("Initial = %v", b.Initial())
	}
	b.SetAccepting(0, true)
	if !b.Accepting(0) {
		t.Error("SetAccepting did not stick")
	}
	s := b.String()
	for _, want := range []string{"Buchi(2 states", "*0:", "a->"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestLimitOfAllAcceptingRejectsPartial(t *testing.T) {
	ab := alphabet.FromNames("a")
	a := nfa.New(ab)
	q0 := a.AddState(true)
	q1 := a.AddState(false)
	sa, _ := ab.Lookup("a")
	a.AddTransition(q0, sa, q1)
	a.SetInitial(q0)
	if _, err := LimitOfAllAccepting(a); err == nil {
		t.Error("LimitOfAllAccepting accepted a non-all-accepting automaton")
	}
	a.SetAccepting(q1, true)
	if _, err := LimitOfAllAccepting(a); err != nil {
		t.Errorf("LimitOfAllAccepting rejected a valid automaton: %v", err)
	}
}
