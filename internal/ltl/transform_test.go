package ltl

import (
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// testImage builds the abstraction used by the transform tests:
// a→x, b→y, c→ε over Σ={a,b,c}, Σ'={x,y}.
func testImage() (src, dst *alphabet.Alphabet, image func(alphabet.Symbol) alphabet.Symbol) {
	src = alphabet.FromNames("a", "b", "c")
	dst = alphabet.FromNames("x", "y")
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	sx, _ := dst.Lookup("x")
	sy, _ := dst.Lookup("y")
	image = func(s alphabet.Symbol) alphabet.Symbol {
		switch s {
		case sa:
			return sx
		case sb:
			return sy
		default:
			return alphabet.Epsilon
		}
	}
	return src, dst, image
}

// applyImage erases hidden letters; ok is false when the loop image is
// empty (h(x) undefined per Definition 6.1).
func applyImage(image func(alphabet.Symbol) alphabet.Symbol, l word.Lasso) (word.Lasso, bool) {
	apply := func(w word.Word) word.Word {
		var out word.Word
		for _, s := range w {
			if d := image(s); d != alphabet.Epsilon {
				out = append(out, d)
			}
		}
		return out
	}
	loop := apply(l.Loop)
	if len(loop) == 0 {
		return word.Lasso{}, false
	}
	return word.MustLasso(apply(l.Prefix), loop), true
}

func TestRbarRejectsEpsilonAtom(t *testing.T) {
	if _, err := Rbar(Atom(alphabet.EpsilonName)); err == nil {
		t.Error("Rbar accepted a formula mentioning ε")
	}
	if _, err := TransformT(Until(EpsilonAtom(), Atom("x"))); err == nil {
		t.Error("TransformT accepted a formula mentioning ε")
	}
}

func TestRbarShape(t *testing.T) {
	// R̄(p) = ε U p for a positive atom, matching the paper exactly.
	got := MustRbar(Atom("x"))
	want := Until(EpsilonAtom(), Atom("x"))
	if !got.Equal(want) {
		t.Errorf("R̄(x) = %s, want %s", got, want)
	}
	// Homomorphic through U.
	got = MustRbar(Until(Atom("x"), Atom("y")))
	want = Until(Until(EpsilonAtom(), Atom("x")), Until(EpsilonAtom(), Atom("y")))
	if !got.Equal(want) {
		t.Errorf("R̄(x U y) = %s, want %s", got, want)
	}
}

// randomSigmaFormula builds a random positive-normal-form candidate over
// the abstract atoms (negations allowed anywhere; Rbar normalizes).
func randomSigmaFormula(rng *rand.Rand, atoms []string, depth int) *Formula {
	if depth <= 0 || rng.Float64() < 0.3 {
		if rng.Intn(8) == 0 {
			return True()
		}
		return Atom(atoms[rng.Intn(len(atoms))])
	}
	switch rng.Intn(8) {
	case 0:
		return Not(randomSigmaFormula(rng, atoms, depth-1))
	case 1:
		return And(randomSigmaFormula(rng, atoms, depth-1), randomSigmaFormula(rng, atoms, depth-1))
	case 2:
		return Or(randomSigmaFormula(rng, atoms, depth-1), randomSigmaFormula(rng, atoms, depth-1))
	case 3:
		return Next(randomSigmaFormula(rng, atoms, depth-1))
	case 4:
		return Until(randomSigmaFormula(rng, atoms, depth-1), randomSigmaFormula(rng, atoms, depth-1))
	case 5:
		return Release(randomSigmaFormula(rng, atoms, depth-1), randomSigmaFormula(rng, atoms, depth-1))
	case 6:
		return Eventually(randomSigmaFormula(rng, atoms, depth-1))
	default:
		return Globally(randomSigmaFormula(rng, atoms, depth-1))
	}
}

// TestQuickLemma75WordLevel is the word-level form of Lemma 7.5 that the
// R̄ reconstruction satisfies: for every x with h(x) defined,
// x, λ_{hΣΣ'} ⊨ R̄(η) iff h(x), λ_{Σ'} ⊨ η.
func TestQuickLemma75WordLevel(t *testing.T) {
	src, dst, image := testImage()
	hLab := CanonicalImage(src, dst, image)
	dstLab := Canonical(dst)
	rng := rand.New(rand.NewSource(61))
	srcSyms := src.Symbols()
	for trial := 0; trial < 120; trial++ {
		eta := randomSigmaFormula(rng, []string{"x", "y"}, 3)
		rbar := MustRbar(eta)
		for i := 0; i < 12; i++ {
			prefix := make(word.Word, rng.Intn(4))
			for j := range prefix {
				prefix[j] = srcSyms[rng.Intn(len(srcSyms))]
			}
			loop := make(word.Word, 1+rng.Intn(4))
			for j := range loop {
				loop[j] = srcSyms[rng.Intn(len(srcSyms))]
			}
			x := word.MustLasso(prefix, loop)
			hx, defined := applyImage(image, x)
			if !defined {
				continue
			}
			concrete, err := EvalLasso(rbar, x, hLab)
			if err != nil {
				t.Fatal(err)
			}
			abstract, err := EvalLasso(eta, hx, dstLab)
			if err != nil {
				t.Fatal(err)
			}
			if concrete != abstract {
				t.Fatalf("trial %d: η=%s: x=%s ⊨ R̄(η) is %v but h(x)=%s ⊨ η is %v\nR̄(η)=%s",
					trial, eta, x.String(src), concrete, hx.String(dst), abstract, rbar)
			}
		}
	}
}

// TestTransformTVsRbar documents the difference: T alone does not anchor
// Boolean subformulas, so on a word starting with erased letters a
// negated atom can evaluate "too early".
func TestTransformTVsRbar(t *testing.T) {
	src, dst, image := testImage()
	hLab := CanonicalImage(src, dst, image)
	dstLab := Canonical(dst)

	eta := Not(Atom("x")) // ¬x in Σ'-normal form
	tOnly, err := TransformT(eta)
	if err != nil {
		t.Fatal(err)
	}
	rbar := MustRbar(eta)

	// x = c·(a)^ω: h(x) = x^ω starts with x, so η is false of h(x).
	sc, _ := src.Lookup("c")
	sa, _ := src.Lookup("a")
	xWord := word.MustLasso(word.Word{sc}, word.Word{sa})
	hx, ok := applyImage(image, xWord)
	if !ok {
		t.Fatal("image undefined")
	}
	abstract, err := EvalLasso(eta, hx, dstLab)
	if err != nil {
		t.Fatal(err)
	}
	if abstract {
		t.Fatal("¬x should be false of x^ω")
	}
	// R̄ agrees with the abstract truth.
	viaRbar, err := EvalLasso(rbar, xWord, hLab)
	if err != nil {
		t.Fatal(err)
	}
	if viaRbar != abstract {
		t.Errorf("R̄ disagrees with abstract evaluation: %v vs %v", viaRbar, abstract)
	}
	// T alone evaluates ¬x at the erased first position and is satisfied
	// there — the behavior R̄'s anchoring exists to prevent.
	viaT, err := EvalLasso(tOnly, xWord, hLab)
	if err != nil {
		t.Fatal(err)
	}
	if !viaT {
		t.Errorf("expected bare T to accept at the erased position (got %v); the documented T/R̄ difference vanished", viaT)
	}
}

// MustRbar is Rbar for statically known-good formulas.
func MustRbar(f *Formula) *Formula {
	g, err := Rbar(f)
	if err != nil {
		panic(err)
	}
	return g
}

// TransformT is the paper's T mapping alone: the temporal clauses of R̄
// without the wrapping of maximal pure Boolean subformulas.
// TestTransformTVsRbar uses it to show the difference between T and R̄;
// verification always uses Rbar.
func TransformT(f *Formula) (*Formula, error) {
	nf := f.Normalize()
	for _, a := range nf.Atoms() {
		if a == alphabet.EpsilonName {
			return nil, fmt.Errorf("ltl: T input already mentions the ε proposition")
		}
	}
	return transformT(nf), nil
}

func transformT(f *Formula) *Formula {
	eps := EpsilonAtom()
	switch f.Op {
	case OpTrue, OpFalse, OpAtom, OpNot:
		return f
	case OpAnd:
		return And(transformT(f.Left), transformT(f.Right))
	case OpOr:
		return Or(transformT(f.Left), transformT(f.Right))
	case OpNext:
		return Until(eps, And(Not(eps), Next(transformT(f.Left))))
	case OpUntil:
		return Until(transformT(f.Left), transformT(f.Right))
	case OpRelease:
		return Release(transformT(f.Left), transformT(f.Right))
	}
	panic(fmt.Sprintf("ltl: non-normalized formula in T: %s", f))
}
