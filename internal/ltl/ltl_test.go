package ltl

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// randomLasso mirrors gen.Lasso; package gen now imports ltl (for the
// formula generator), so these in-package tests keep a local copy to
// avoid the test import cycle.
func randomLasso(rng *rand.Rand, ab *alphabet.Alphabet, maxPrefix, maxLoop int) word.Lasso {
	randomWord := func(n int) word.Word {
		syms := ab.Symbols()
		w := make(word.Word, n)
		for i := range w {
			w[i] = syms[rng.Intn(len(syms))]
		}
		return w
	}
	p := randomWord(rng.Intn(maxPrefix + 1))
	l := randomWord(1 + rng.Intn(maxLoop))
	return word.MustLasso(p, l)
}

func lasso(ab *alphabet.Alphabet, prefix, loop string) word.Lasso {
	toWord := func(s string) word.Word {
		var w word.Word
		for _, r := range s {
			w = append(w, ab.Symbol(string(r)))
		}
		return w
	}
	return word.MustLasso(toWord(prefix), toWord(loop))
}

func TestParseRoundTrip(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"G F result", "□◇result"},
		{"[]<>result", "□◇result"},
		{"□◇result", "□◇result"},
		{"a U b", "a U b"},
		{"a U b U c", "a U (b U c)"},
		{"!a & b | c", "(¬a ∧ b) ∨ c"},
		{"a -> b -> c", "a ⇒ (b ⇒ c)"},
		{"a <-> b", "a ⇔ b"},
		{"X (a R b)", "○(a R b)"},
		{"○(a ∧ ○a)", "○(a ∧ ○a)"},
		{"<>(a && X a)", "◇(a ∧ ○a)"},
		{"a B b", "a B b"},
		{"true U eps", "true U ε"},
		{"false", "false"},
	}
	for _, tc := range tests {
		f, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := f.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "(a", "a U", "a b", "&", "a #", ")a("} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestNormalizePNF(t *testing.T) {
	tests := []string{
		"!(a U b)",
		"!(G F a)",
		"!(a -> b)",
		"!(a <-> X b)",
		"a B b",
		"!!a",
		"!true",
		"!(a | !(b & X c))",
	}
	for _, in := range tests {
		f := MustParse(in)
		n := f.Normalize()
		if !n.IsPositiveNormalForm() {
			t.Errorf("Normalize(%q) = %q not in PNF", in, n)
		}
	}
}

func TestIsSigmaNormalForm(t *testing.T) {
	letters := map[string]bool{"a": true, "b": true}
	if !MustParse("a U !b").Normalize().IsSigmaNormalForm(letters) {
		t.Error("a U ¬b (normalized) should be Σ-normal form")
	}
	if MustParse("a U c").Normalize().IsSigmaNormalForm(letters) {
		t.Error("formula with foreign atom passed Σ-normal form check")
	}
	if MustParse("!(a U b)").IsSigmaNormalForm(letters) {
		t.Error("non-PNF formula passed Σ-normal form check")
	}
}

func TestEvalLassoBasics(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	tests := []struct {
		formula      string
		prefix, loop string
		want         bool
	}{
		{"G F a", "", "ab", true},
		{"G F a", "aaa", "b", false},
		{"F G b", "aaa", "b", true},
		{"F G b", "", "ab", false},
		{"a U b", "ab", "a", true},
		{"a U b", "", "a", false},
		{"X a", "ba", "b", true},
		{"X X b", "aa", "b", true},
		{"a", "ab", "b", true},
		{"b", "ab", "b", false},
		{"a R b", "", "b", true},
		// With singleton labels no letter satisfies a ∧ b, so the release
		// point of "a R b" is unreachable: it holds only on b^ω.
		{"a R b", "b", "ab", false},
		{"a R b", "bbb", "b", true},
		{"a R b", "", "ab", false},
		// "(a ∨ b) R b" releases at any b, so it holds iff the word
		// starts with b.
		{"(a | b) R b", "", "b", true},
		{"(a | b) R b", "b", "ab", true},
		{"(a | b) R b", "a", "b", false},
		{"b R b", "", "b", true},
		{"<>(a && X a)", "b", "ab", false},
		{"<>(a && X a)", "baa", "b", true},
		{"a B b", "", "a", true},    // never b
		{"a B b", "ab", "a", true},  // a strictly before first b
		{"a B b", "ba", "a", false}, // b first
		{"true", "", "a", true},
		{"false", "", "a", false},
	}
	for _, tc := range tests {
		l := lasso(ab, tc.prefix, tc.loop)
		got, err := EvalLasso(MustParse(tc.formula), l, lab)
		if err != nil {
			t.Fatalf("EvalLasso(%q, %s): %v", tc.formula, l.String(ab), err)
		}
		if got != tc.want {
			t.Errorf("EvalLasso(%q, %s) = %v, want %v", tc.formula, l.String(ab), got, tc.want)
		}
	}
}

func TestEvalLassoInvalid(t *testing.T) {
	ab := alphabet.FromNames("a")
	if _, err := EvalLasso(MustParse("a"), word.Lasso{}, Canonical(ab)); err == nil {
		t.Error("EvalLasso accepted an invalid lasso")
	}
}

func TestTranslateBuchiBasics(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	tests := []struct {
		formula      string
		prefix, loop string
		want         bool
	}{
		{"G F a", "", "ab", true},
		{"G F a", "aaa", "b", false},
		{"F G b", "aaa", "b", true},
		{"a U b", "ab", "a", true},
		{"a U b", "", "a", false},
		{"X X b", "aa", "b", true},
		{"a R b", "", "b", true},
		{"<>(a && X a)", "baa", "b", true},
		{"<>(a && X a)", "b", "ab", false},
	}
	for _, tc := range tests {
		b, _ := TranslateBuchi(nil, MustParse(tc.formula), lab)
		l := lasso(ab, tc.prefix, tc.loop)
		if got := b.AcceptsLasso(l); got != tc.want {
			t.Errorf("automaton for %q accepts %s = %v, want %v",
				tc.formula, l.String(ab), got, tc.want)
		}
	}
}

// randomFormula generates a random formula over the given atom names.
func randomFormula(rng *rand.Rand, atoms []string, depth int) *Formula {
	if depth <= 0 || rng.Float64() < 0.25 {
		switch rng.Intn(6) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			return Atom(atoms[rng.Intn(len(atoms))])
		}
	}
	switch rng.Intn(9) {
	case 0:
		return Not(randomFormula(rng, atoms, depth-1))
	case 1:
		return And(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 2:
		return Or(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 3:
		return Next(randomFormula(rng, atoms, depth-1))
	case 4:
		return Until(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 5:
		return Release(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 6:
		return Eventually(randomFormula(rng, atoms, depth-1))
	case 7:
		return Globally(randomFormula(rng, atoms, depth-1))
	default:
		return Implies(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	}
}

// TestQuickNormalizePreservesSemantics: Normalize must not change lasso
// evaluation.
func TestQuickNormalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	atoms := ab.Names()
	for trial := 0; trial < 150; trial++ {
		f := randomFormula(rng, atoms, 3)
		n := f.Normalize()
		for i := 0; i < 8; i++ {
			l := randomLasso(rng, ab, 3, 3)
			got1, err1 := EvalLasso(f, l, lab)
			got2, err2 := EvalLasso(n, l, lab)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval error: %v %v", err1, err2)
			}
			if got1 != got2 {
				t.Fatalf("Normalize changed semantics of %s on %s: %v vs %v (normalized %s)",
					f, l.String(ab), got1, got2, n)
			}
		}
	}
}

// TestQuickTranslationAgreesWithEval is the central soundness check: the
// GPVW translation agrees with direct lasso evaluation on random
// formulas and random ultimately periodic words.
func TestQuickTranslationAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	atoms := ab.Names()
	for trial := 0; trial < 80; trial++ {
		f := randomFormula(rng, atoms, 3)
		b, _ := TranslateBuchi(nil, f, lab)
		for i := 0; i < 10; i++ {
			l := randomLasso(rng, ab, 3, 3)
			want, err := EvalLasso(f, l, lab)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.AcceptsLasso(l); got != want {
				t.Fatalf("trial %d: automaton for %s accepts %s = %v, eval says %v",
					trial, f, l.String(ab), got, want)
			}
		}
	}
}

// TestQuickTranslationNegation: L(¬f) is the complement of L(f) on
// sampled lassos.
func TestQuickTranslationNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	atoms := ab.Names()
	for trial := 0; trial < 40; trial++ {
		f := randomFormula(rng, atoms, 3)
		pos, _ := TranslateBuchi(nil, f, lab)
		neg, _ := TranslateNegation(nil, f, lab)
		for i := 0; i < 8; i++ {
			l := randomLasso(rng, ab, 3, 3)
			if pos.AcceptsLasso(l) == neg.AcceptsLasso(l) {
				t.Fatalf("trial %d: %s and its negation agree on %s", trial, f, l.String(ab))
			}
		}
	}
}

func TestAtomsAndSize(t *testing.T) {
	f := MustParse("a U (b & X a)")
	atoms := f.Atoms()
	if len(atoms) != 2 || atoms[0] != "a" || atoms[1] != "b" {
		t.Errorf("Atoms = %v", atoms)
	}
	if f.Size() != 6 {
		t.Errorf("Size = %d, want 6", f.Size())
	}
}

func TestFormulaKeyEqual(t *testing.T) {
	f1 := MustParse("a U (b & c)")
	f2 := MustParse("a U (b & c)")
	f3 := MustParse("a U (c & b)")
	if !f1.Equal(f2) {
		t.Error("identical formulas not Equal")
	}
	if f1.Equal(f3) {
		t.Error("b&c equals c&b structurally?")
	}
}

func TestLabelings(t *testing.T) {
	src := alphabet.FromNames("request", "result", "tau")
	dst := alphabet.FromNames("request", "result")
	canon := Canonical(src)
	req, _ := src.Lookup("request")
	if !canon.Has(req, "request") || canon.Has(req, "result") {
		t.Error("canonical labeling wrong")
	}
	img := func(s alphabet.Symbol) alphabet.Symbol {
		name := src.Name(s)
		if name == "tau" {
			return alphabet.Epsilon
		}
		d, _ := dst.Lookup(name)
		return d
	}
	hlab := CanonicalImage(src, dst, img)
	tau, _ := src.Lookup("tau")
	if !hlab.Has(tau, alphabet.EpsilonName) {
		t.Error("erased letter must satisfy ε")
	}
	if !hlab.Has(req, "request") || hlab.Has(req, alphabet.EpsilonName) {
		t.Error("kept letter labeled wrongly")
	}
	if len(hlab.labels[tau]) != 1 {
		t.Errorf("λ(tau) = %v, want {ε}", hlab.labels[tau])
	}
}
