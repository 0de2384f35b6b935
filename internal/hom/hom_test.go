package hom

import (
	"math/rand"
	"slices"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/genbase"
	"relive/internal/nfa"
	"relive/internal/word"
)

// testHom returns a homomorphism over {a,b,c} that keeps a (renamed x),
// keeps b (renamed y), and hides c.
func testHom() *Hom {
	src := alphabet.FromNames("a", "b", "c")
	dst := alphabet.FromNames("x", "y")
	h := New(src, dst)
	h.SetByName("a", "x")
	h.SetByName("b", "y")
	h.SetByName("c", "")
	return h
}

func TestApplyWord(t *testing.T) {
	h := testHom()
	src := h.Source()
	w := word.FromNames(src, "a", "c", "b", "c", "c", "a")
	got := h.Apply(w)
	want := word.FromNames(h.Dest(), "x", "y", "x")
	if !slices.Equal(got, want) {
		t.Errorf("Apply = %s, want %s", got.String(h.Dest()), want.String(h.Dest()))
	}
	if len(h.Apply(word.Word{})) != 0 {
		t.Error("Apply(ε) != ε")
	}
}

func TestApplyLasso(t *testing.T) {
	h := testHom()
	src := h.Source()
	l := word.MustLasso(word.FromNames(src, "c", "a"), word.FromNames(src, "b", "c"))
	got, ok := h.ApplyLasso(l)
	if !ok {
		t.Fatal("ApplyLasso undefined on a lasso with visible loop letters")
	}
	want := word.MustLasso(word.FromNames(h.Dest(), "x"), word.FromNames(h.Dest(), "y"))
	if !got.Equal(want) {
		t.Errorf("ApplyLasso = %s, want %s", got.String(h.Dest()), want.String(h.Dest()))
	}
	// Erased loop: h(x) undefined.
	l2 := word.MustLasso(word.FromNames(src, "a"), word.FromNames(src, "c"))
	if _, ok := h.ApplyLasso(l2); ok {
		t.Error("ApplyLasso defined although only finitely many letters survive")
	}
}

func TestParseAndString(t *testing.T) {
	src := alphabet.FromNames("a", "b", "c")
	h, err := Parse(src, "a=>x, b=>, c=>x")
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	sc, _ := src.Lookup("c")
	if h.Dest().Name(h.Image(sa)) != "x" || h.Image(sb) != alphabet.Epsilon || h.Dest().Name(h.Image(sc)) != "x" {
		t.Errorf("parsed mapping wrong: %s", h)
	}
	if _, err := Parse(src, "zzz=>x"); err == nil {
		t.Error("Parse accepted unknown source letter")
	}
	if _, err := Parse(src, "a-x"); err == nil {
		t.Error("Parse accepted malformed item")
	}
}

func TestImageNFAOnSampledWords(t *testing.T) {
	h := testHom()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		a := genbase.NFA(rng, genbase.Config{States: 5, Symbols: 3, Density: 0.5, AcceptRatio: 0.5}, h.Source())
		img := h.ImageNFA(a)
		for i := 0; i < 30; i++ {
			w := genbase.Word(rng, h.Source(), rng.Intn(7))
			if a.Accepts(w) && !img.Accepts(h.Apply(w)) {
				t.Fatalf("trial %d: h(w) not in image for w=%s", trial, w.String(h.Source()))
			}
		}
	}
}

func TestImageNFAExact(t *testing.T) {
	// L = (acb)* over {a,b,c}; h keeps a→x, b→y, hides c: h(L) = (xy)*.
	h := testHom()
	src := h.Source()
	a := nfa.New(src)
	q0 := a.AddState(true)
	q1 := a.AddState(false)
	q2 := a.AddState(false)
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	sc, _ := src.Lookup("c")
	a.AddTransition(q0, sa, q1)
	a.AddTransition(q1, sc, q2)
	a.AddTransition(q2, sb, q0)
	a.SetInitial(q0)

	want := nfa.New(h.Dest())
	p0 := want.AddState(true)
	p1 := want.AddState(false)
	sx, _ := h.Dest().Lookup("x")
	sy, _ := h.Dest().Lookup("y")
	want.AddTransition(p0, sx, p1)
	want.AddTransition(p1, sy, p0)
	want.SetInitial(p0)

	if ok, w := nfa.LanguageEqual(h.ImageNFA(a), want); !ok {
		t.Errorf("image language differs from (xy)*, witness %s", w.String(h.Dest()))
	}
}

func TestInverseImageBuchi(t *testing.T) {
	h := testHom()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		b := randomBuchi(rng, h.Dest(), 1+rng.Intn(4))
		inv := h.InverseImageBuchi(b)
		for i := 0; i < 25; i++ {
			l := genbase.Lasso(rng, h.Source(), 3, 3)
			img, defined := h.ApplyLasso(l)
			want := defined && b.AcceptsLasso(img)
			if got := inv.AcceptsLasso(l); got != want {
				t.Fatalf("trial %d: h^{-1} accepts %s = %v, want %v (h(x) defined=%v)",
					trial, l.String(h.Source()), got, want, defined)
			}
		}
	}
}

func randomBuchi(rng *rand.Rand, ab *alphabet.Alphabet, n int) *buchi.Buchi {
	b := buchi.New(ab)
	for i := 0; i < n; i++ {
		b.AddState(rng.Float64() < 0.5)
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.6 {
					b.AddTransition(buchi.State(i), sym, buchi.State(rng.Intn(n)))
				}
			}
		}
	}
	b.SetInitial(0)
	return b
}

func TestLabeling(t *testing.T) {
	h := testHom()
	lab := h.Labeling()
	src := h.Source()
	sa, _ := src.Lookup("a")
	sc, _ := src.Lookup("c")
	if !lab.Has(sa, "x") || lab.Has(sa, alphabet.EpsilonName) {
		t.Error("λ(a) should be {x}")
	}
	if !lab.Has(sc, alphabet.EpsilonName) {
		t.Error("λ(c) should be {ε}")
	}
}

func TestIdentityHomIsSimple(t *testing.T) {
	src := alphabet.FromNames("a", "b")
	h := Identity(src, "a", "b")
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 15; trial++ {
		a := genbase.NFA(rng, genbase.Config{States: 4, Symbols: 2, Density: 0.6, AcceptRatio: 0.7}, src)
		a = a.MarkAllAccepting() // prefix-closed system languages
		res, err := h.IsSimple(a)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Simple {
			t.Fatalf("trial %d: identity homomorphism not simple, witness %s",
				trial, res.Witness.String(src))
		}
	}
}

func TestHideAllIsSimple(t *testing.T) {
	src := alphabet.FromNames("a", "b")
	h := Identity(src) // hide everything: h(L) ⊆ {ε}
	a := nfa.New(src)
	q := a.AddState(true)
	sa, _ := src.Lookup("a")
	a.AddTransition(q, sa, q)
	a.SetInitial(q)
	res, err := h.IsSimple(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Simple {
		t.Error("total hiding should be simple (all continuations collapse to {ε})")
	}
}

func TestIsSimpleCounterexample(t *testing.T) {
	// L = pre((a+b)c*): after reading a the hidden c's loop forever, and
	// the abstract continuations still offer nothing; after reading b the
	// same. Make it asymmetric: L = pre(a·d* + b·(d*·a)) with d hidden,
	// h(a)=x, h(b)=y... Use the classic failure shape instead: the
	// abstract language allows x·x, but after the concrete w = a the
	// continuation can never produce another x, while from b it can.
	src := alphabet.FromNames("a", "b", "d")
	h := New(src, alphabet.FromNames("x"))
	h.SetByName("a", "x")
	h.SetByName("b", "x")
	h.SetByName("d", "")
	// Concrete: q0 -a-> dead-loop on d; q0 -b-> q1 -a-> q1 (a forever).
	a := nfa.New(src)
	q0 := a.AddState(true)
	qa := a.AddState(true)
	qb := a.AddState(true)
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	sd, _ := src.Lookup("d")
	a.AddTransition(q0, sa, qa)
	a.AddTransition(qa, sd, qa)
	a.AddTransition(q0, sb, qb)
	a.AddTransition(qb, sa, qb)
	a.SetInitial(q0)
	// h(L) = pre(x·x*) = x*. After w=a (h(w)=x): h(cont(w,L)) = d* image
	// = {ε}, but cont(x, x*) = x*: for every u ∈ x*, cont(u, x*) = x* ≠
	// cont(u, {ε}). Not simple, witnessed by w = a.
	res, err := h.IsSimple(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simple {
		t.Fatal("expected non-simple homomorphism")
	}
	// The witness must reach the broken configuration: reading it ends in
	// the d-loop state. ε is in every non-empty prefix-closed L, so
	// membership alone does not show that.
	if got := res.Witness.String(src); got != "a" {
		t.Errorf("witness %s, want a", got)
	}
	if !a.Accepts(res.Witness) {
		t.Errorf("witness %s not in L", res.Witness.String(src))
	}
}

func TestExtendMaximalWords(t *testing.T) {
	// L = {ab}: h identity on {a,b}. h(L) has maximal word ab; extension
	// adds ab#*.
	src := alphabet.FromNames("a", "b")
	h := Identity(src, "a", "b")
	a := nfa.New(src)
	q0 := a.AddState(false)
	q1 := a.AddState(false)
	q2 := a.AddState(true)
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	a.AddTransition(q0, sa, q1)
	a.AddTransition(q1, sb, q2)
	a.SetInitial(q0)

	if has, w := h.HasMaximalWords(a); !has || w.String(h.Dest()) != "a·b" {
		t.Fatalf("HasMaximalWords = %v, %v", has, w)
	}
	ext := h.ExtendMaximalWords(a)
	dst := ext.Alphabet()
	hash, ok := dst.Lookup(HashName)
	if !ok {
		t.Fatal("extension did not intern #")
	}
	da, _ := dst.Lookup("a")
	db, _ := dst.Lookup("b")
	if !ext.Accepts(word.Word{da, db, hash, hash}) {
		t.Error("extension rejects ab##")
	}
	if ext.Accepts(word.Word{da, hash}) {
		t.Error("extension accepts a# although a is not maximal")
	}
	if has, _ := ext.HasMaximalWords(); has {
		t.Error("extended language still has maximal words")
	}
}
