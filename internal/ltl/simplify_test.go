package ltl

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
)

func TestSimplifyRules(t *testing.T) {
	tests := []struct {
		in   string
		want string // rendered simplified form
	}{
		{"F F a", "true U a"},
		{"G G a", "false R a"},
		{"F G F a", "false R (true U a)"},
		{"G F G a", "true U (false R a)"},
		{"a & a", "a"},
		{"a | a", "a"},
		{"a & !a", "false"},
		{"a | !a", "true"},
		{"a & true", "a"},
		{"a | false", "a"},
		{"a & false", "false"},
		{"a U true", "true"},
		{"a U false", "false"},
		{"false U a", "a"},
		{"a U a", "a"},
		{"a R true", "true"},
		{"a R false", "false"},
		{"true R a", "a"},
		{"a R a", "a"},
		{"X true", "true"},
		{"X false", "false"},
	}
	for _, tc := range tests {
		got := Simplify(MustParse(tc.in)).String()
		if got != tc.want {
			t.Errorf("Simplify(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestQuickSimplifyPreservesSemantics checks equivalence on sampled
// lassos and by automata-based language equivalence.
func TestQuickSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	atoms := ab.Names()
	for trial := 0; trial < 100; trial++ {
		f := randomFormula(rng, atoms, 3)
		s := Simplify(f)
		if s.Size() > f.Normalize().Size() {
			t.Errorf("Simplify grew %s (%d) to %s (%d)", f, f.Normalize().Size(), s, s.Size())
		}
		for i := 0; i < 10; i++ {
			l := randomLasso(rng, ab, 3, 3)
			v1, err := EvalLasso(f, l, lab)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := EvalLasso(s, l, lab)
			if err != nil {
				t.Fatal(err)
			}
			if v1 != v2 {
				t.Fatalf("trial %d: Simplify changed semantics of %s → %s on %s",
					trial, f, s, l.String(ab))
			}
		}
		if trial < 25 && !Equivalent(f, s, lab) {
			t.Fatalf("trial %d: %s not language-equivalent to its simplification %s", trial, f, s)
		}
	}
}

func TestEquivalentAndImplies(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	pairs := []struct {
		f, g string
		want bool
	}{
		{"G F a", "! F G ! a", true},
		{"a U b", "b | (a & X (a U b))", true},
		{"a W b", "(a U b) | G a", true},
		{"a W b", "b R (a | b)", true},
		{"F a", "G a", false},
		{"a B b", "!(!a U b)", true},
	}
	for _, tc := range pairs {
		got := Equivalent(MustParse(tc.f), MustParse(tc.g), lab)
		if got != tc.want {
			t.Errorf("Equivalent(%q, %q) = %v, want %v", tc.f, tc.g, got, tc.want)
		}
	}
}

func TestWeakUntilSemantics(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	rng := rand.New(rand.NewSource(132))
	w := MustParse("a W b")
	expanded := MustParse("(a U b) | G a")
	for i := 0; i < 60; i++ {
		l := randomLasso(rng, ab, 3, 3)
		v1, err := EvalLasso(w, l, lab)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := EvalLasso(expanded, l, lab)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Fatalf("a W b disagrees with its expansion on %s", l.String(ab))
		}
		// The automaton route agrees too.
		b, _ := TranslateBuchi(nil, w, lab)
		if got := b.AcceptsLasso(l); got != v1 {
			t.Fatalf("automaton for a W b disagrees on %s", l.String(ab))
		}
	}
	if !MustParse("a W b").Normalize().IsPositiveNormalForm() {
		t.Error("normalized W not in PNF")
	}
}
