package hom

import (
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
	"relive/internal/nfa"
	"relive/internal/word"
)

// Edge cases of the {#}*-extension: the empty language (nothing to
// extend — and nothing to crash on) and an ε-only homomorphic image
// (every letter hidden), where ε itself is the maximal word.

// TestExtendMaximalWordsEmptyLanguage: L = ∅ in both shapes — an
// automaton with no initial state and one whose accepting states are
// unreachable (trim empties it). The extension is the empty language
// again, and HasMaximalWords finds nothing.
func TestExtendMaximalWordsEmptyLanguage(t *testing.T) {
	src := alphabet.FromNames("a", "b")
	h := Identity(src, "a", "b")

	noInit := nfa.New(src)
	noInit.AddState(true)
	if has, w := h.HasMaximalWords(noInit); has {
		t.Fatalf("empty language has maximal word %v", w)
	}
	ext := h.ExtendMaximalWords(noInit)
	if has, w := ext.HasMaximalWords(); has {
		t.Fatalf("extension of empty language has maximal word %v", w)
	}

	unreachable := nfa.New(src)
	q0 := unreachable.AddState(false)
	unreachable.AddState(true) // no transition leads here
	unreachable.SetInitial(q0)
	if has, w := h.HasMaximalWords(unreachable); has {
		t.Fatalf("trim-empty language has maximal word %v", w)
	}
	ext = h.ExtendMaximalWords(unreachable)
	sa, _ := src.Lookup("a")
	if ext.Accepts(word.Word{}) || ext.Accepts(word.Word{sa}) {
		t.Fatal("extension of an empty language accepts a word")
	}
}

// TestExtendMaximalWordsEpsilonOnlyHom: h hides every letter, so
// h(L) = {ε} for any nonempty L. ε is maximal (it is not a proper
// prefix of any other word of h(L)); the extension turns it into #*,
// after which no maximal words remain.
func TestExtendMaximalWordsEpsilonOnlyHom(t *testing.T) {
	src := alphabet.FromNames("a", "b")
	dst := alphabet.FromNames()
	h := New(src, dst)
	h.SetByName("a", "")
	h.SetByName("b", "")

	a := nfa.New(src)
	q0 := a.AddState(true)
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	a.AddTransition(q0, sa, q0)
	a.AddTransition(q0, sb, q0)
	a.SetInitial(q0)

	has, w := h.HasMaximalWords(a)
	if !has {
		t.Fatal("ε-only image has no maximal word; ε itself is maximal")
	}
	if len(w) != 0 {
		t.Fatalf("maximal word of {ε} is %v, want ε", w)
	}

	ext := h.ExtendMaximalWords(a)
	hash, ok := ext.Alphabet().Lookup(HashName)
	if !ok {
		t.Fatal("extension did not intern #")
	}
	for n := 0; n <= 3; n++ {
		w := make(word.Word, n)
		for i := range w {
			w[i] = hash
		}
		if !ext.Accepts(w) {
			t.Fatalf("extension rejects #^%d", n)
		}
	}
	if has, w := ext.HasMaximalWords(); has {
		t.Fatalf("extended ε-only language still has maximal word %v", w)
	}
}

// hashWords lists the words up to length n over ext's alphabet that
// contain the # letter and that ext accepts.
func hashWords(ext *nfa.NFA, hash alphabet.Symbol, n int) []string {
	var out []string
	for _, w := range genbase.Words(ext.Alphabet(), n) {
		for _, sym := range w {
			if sym == hash {
				if ext.Accepts(w) {
					out = append(out, w.String(ext.Alphabet()))
				}
				break
			}
		}
	}
	return out
}

// TestExtendMaximalWordsPrefixClosed: the images the abstraction check
// passes to ExtendMaximalWords are prefix-closed, where every proper
// prefix of a word is accepting and can be extended. # must loop only
// where the word read so far is maximal: after ab in pre(ab + a·c*),
// and nowhere in pre((ab)*), which has no maximal word.
func TestExtendMaximalWordsPrefixClosed(t *testing.T) {
	src := alphabet.FromNames("a", "b", "c")
	h := Identity(src, "a", "b", "c")
	sa, _ := src.Lookup("a")
	sb, _ := src.Lookup("b")
	sc, _ := src.Lookup("c")

	// pre(ab + a·c*) = {ε, a, ab, ac, acc, …}: ab is its one maximal word.
	abOrAC := nfa.New(src)
	q0 := abOrAC.AddState(true)
	q1 := abOrAC.AddState(true)
	q2 := abOrAC.AddState(true)
	abOrAC.AddTransition(q0, sa, q1)
	abOrAC.AddTransition(q1, sb, q2)
	abOrAC.AddTransition(q1, sc, q1)
	abOrAC.SetInitial(q0)
	ext := h.ExtendMaximalWords(abOrAC)
	dst := ext.Alphabet()
	hash, ok := dst.Lookup(HashName)
	if !ok {
		t.Fatal("extension did not intern #")
	}
	da, _ := dst.Lookup("a")
	db, _ := dst.Lookup("b")
	dc, _ := dst.Lookup("c")
	if w := (word.Word{da, db, hash}); !ext.Accepts(w) {
		t.Errorf("extension rejects %s", w.String(dst))
	}
	for _, w := range []word.Word{{hash}, {da, hash}, {da, dc, hash}} {
		if ext.Accepts(w) {
			t.Errorf("extension accepts %s, whose prefix before # is not maximal", w.String(dst))
		}
	}

	// pre((ab)*) = {ε, a, ab, aba, …}: no maximal word, so no # at all.
	abStar := nfa.New(src)
	p0 := abStar.AddState(true)
	p1 := abStar.AddState(true)
	abStar.AddTransition(p0, sa, p1)
	abStar.AddTransition(p1, sb, p0)
	abStar.SetInitial(p0)
	ext = h.ExtendMaximalWords(abStar)
	hash, _ = ext.Alphabet().Lookup(HashName)
	if got := hashWords(ext, hash, 4); len(got) > 0 {
		t.Errorf("extension of pre((ab)*) accepts %v", got)
	}
}
