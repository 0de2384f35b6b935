// Package word provides finite words and ultimately periodic ω-words
// ("lassos") over interned alphabets, together with the prefix operations
// and the Cantor metric (Definition 4.8 of Nitsche & Wolper, PODC'97)
// that the relative-liveness theory is phrased in.
//
// All infinite words manipulated by this module are ultimately periodic,
// written u·v^ω and represented by a Lasso. This is no loss: emptiness of
// ω-regular languages always has ultimately periodic witnesses, and every
// counterexample or witness produced by the checkers is a Lasso.
package word

import (
	"strings"

	"relive/internal/alphabet"
)

// Word is a finite word over an alphabet.
type Word []alphabet.Symbol

// Clone returns a fresh copy of w.
func (w Word) Clone() Word {
	out := make(Word, len(w))
	copy(out, w)
	return out
}

// String renders w using names from ab, separated by dots. The empty
// word renders as "ε".
func (w Word) String(ab *alphabet.Alphabet) string {
	if len(w) == 0 {
		return alphabet.EpsilonName
	}
	parts := make([]string, len(w))
	for i, s := range w {
		parts[i] = ab.Name(s)
	}
	return strings.Join(parts, "·")
}

// FromNames builds a word by interning the given names into ab.
func FromNames(ab *alphabet.Alphabet, names ...string) Word {
	w := make(Word, len(names))
	for i, n := range names {
		w[i] = ab.Symbol(n)
	}
	return w
}
