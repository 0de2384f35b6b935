package nfa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// buildFromSeed deterministically derives a small NFA from a seed, so
// testing/quick can explore automata through plain integers.
func buildFromSeed(seed int64, ab *alphabet.Alphabet) *NFA {
	rng := rand.New(rand.NewSource(seed))
	a := New(ab)
	n := 1 + rng.Intn(5)
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
	}
	a.SetInitial(0)
	return a
}

func wordFromBits(ab *alphabet.Alphabet, bits []bool) word.Word {
	syms := ab.Symbols()
	w := make(word.Word, len(bits))
	for i, b := range bits {
		if b {
			w[i] = syms[0]
		} else {
			w[i] = syms[1]
		}
	}
	return w
}

// TestQuickDeMorgan: complement(L1 ∩ L2) = complement(L1) ∪
// complement(L2) pointwise on sampled words.
func TestQuickDeMorgan(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	f := func(s1, s2 int64, bits []bool) bool {
		if len(bits) > 7 {
			bits = bits[:7]
		}
		a1 := buildFromSeed(s1, ab)
		a2 := buildFromSeed(s2, ab)
		w := wordFromBits(ab, bits)
		left := !Intersect(a1, a2).Accepts(w)
		right := a1.Determinize().Complement().Accepts(w) ||
			a2.Determinize().Complement().Accepts(w)
		return left == right
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDoubleComplement: complementing twice restores the language.
func TestQuickDoubleComplement(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	f := func(seed int64, bits []bool) bool {
		if len(bits) > 7 {
			bits = bits[:7]
		}
		a := buildFromSeed(seed, ab)
		w := wordFromBits(ab, bits)
		return a.Accepts(w) == a.Determinize().Complement().Complement().Accepts(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickPrefixLanguageIdempotent: pre(pre(L)) = pre(L).
func TestQuickPrefixLanguageIdempotent(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	f := func(seed int64) bool {
		a := buildFromSeed(seed, ab)
		p := a.PrefixLanguage()
		pp := p.PrefixLanguage()
		eq, _ := LanguageEqual(p, pp)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
