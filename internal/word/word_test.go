package word

import (
	"testing"
	"testing/quick"

	"relive/internal/alphabet"
)

func ab2() *alphabet.Alphabet { return alphabet.FromNames("a", "b") }

func TestWordBasics(t *testing.T) {
	ab := ab2()
	w := FromNames(ab, "a", "b", "a")
	if got := w.String(ab); got != "a·b·a" {
		t.Errorf("String = %q", got)
	}
	if got := (Word{}).String(ab); got != alphabet.EpsilonName {
		t.Errorf("empty word String = %q", got)
	}
}

func TestLassoAtAndSuffix(t *testing.T) {
	ab := ab2()
	l := MustLasso(FromNames(ab, "a"), FromNames(ab, "b", "a"))
	// a (b a)^ω = a b a b a b a ...
	wantNames := []string{"a", "b", "a", "b", "a", "b"}
	for i, n := range wantNames {
		if got := ab.Name(l.At(i)); got != n {
			t.Errorf("At(%d) = %q, want %q", i, got, n)
		}
	}
}

func TestLassoEqualDifferentRepresentations(t *testing.T) {
	ab := ab2()
	// a (b a)^ω  ==  a b (a b)^ω  ==  (a b)^ω... check first two equal,
	// and both equal (a·b)^ω since the word is a b a b a b...
	l1 := MustLasso(FromNames(ab, "a"), FromNames(ab, "b", "a"))
	l2 := MustLasso(FromNames(ab, "a", "b"), FromNames(ab, "a", "b"))
	l3 := MustLasso(nil, FromNames(ab, "a", "b"))
	l4 := MustLasso(nil, FromNames(ab, "a", "b", "a", "b"))
	for i, pair := range [][2]Lasso{{l1, l2}, {l1, l3}, {l2, l3}, {l3, l4}} {
		if !pair[0].Equal(pair[1]) {
			t.Errorf("pair %d: %s != %s", i, pair[0].String(ab), pair[1].String(ab))
		}
	}
	diff := MustLasso(nil, FromNames(ab, "b", "a"))
	if l3.Equal(diff) {
		t.Errorf("(a·b)^ω == (b·a)^ω")
	}
}

func TestLassoNormalize(t *testing.T) {
	ab := ab2()
	l := MustLasso(FromNames(ab, "a", "b"), FromNames(ab, "a", "b", "a", "b"))
	n := l.Normalize()
	if len(n.Loop) != 2 || len(n.Prefix) != 0 {
		t.Errorf("Normalize: got prefix %d loop %d, want 0/2", len(n.Prefix), len(n.Loop))
	}
	if !n.Equal(l) {
		t.Error("Normalize changed the denoted word")
	}
}

func TestNewLassoRejectsEmptyLoop(t *testing.T) {
	if _, err := NewLasso(nil, nil); err == nil {
		t.Error("NewLasso accepted an empty loop")
	}
	if (Lasso{}).Valid() {
		t.Error("zero Lasso is Valid")
	}
}

func TestQuickPrefixOfLenMatchesAt(t *testing.T) {
	ab := ab2()
	f := func(pfx []bool, loop []bool, nRaw uint8) bool {
		if len(loop) == 0 {
			loop = []bool{true}
		}
		toWord := func(bs []bool) Word {
			w := make(Word, len(bs))
			for i, b := range bs {
				if b {
					w[i] = ab.Symbol("a")
				} else {
					w[i] = ab.Symbol("b")
				}
			}
			return w
		}
		l := MustLasso(toWord(pfx), toWord(loop))
		n := int(nRaw % 40)
		p := l.PrefixOfLen(n)
		for i := 0; i < n; i++ {
			if p[i] != l.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizePreservesWord(t *testing.T) {
	ab := ab2()
	f := func(pfx []bool, loop []bool) bool {
		if len(loop) == 0 {
			loop = []bool{false}
		}
		toWord := func(bs []bool) Word {
			w := make(Word, len(bs))
			for i, b := range bs {
				if b {
					w[i] = ab.Symbol("a")
				} else {
					w[i] = ab.Symbol("b")
				}
			}
			return w
		}
		l := MustLasso(toWord(pfx), toWord(loop))
		return l.Normalize().Equal(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
