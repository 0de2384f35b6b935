package ltl

import "relive/internal/alphabet"

// Labeling is a function λ : Σ → 2^AP giving, for every letter of an
// alphabet, the set of atomic propositions that hold at positions
// carrying that letter (Section 3 of the paper).
type Labeling struct {
	ab     *alphabet.Alphabet
	labels map[alphabet.Symbol]map[string]bool
}

// NewLabeling returns an empty labeling over ab: every letter satisfies
// no propositions until SetLabel is called.
func NewLabeling(ab *alphabet.Alphabet) *Labeling {
	return &Labeling{ab: ab, labels: make(map[alphabet.Symbol]map[string]bool)}
}

// Alphabet returns the labeled alphabet.
func (l *Labeling) Alphabet() *alphabet.Alphabet { return l.ab }

// SetLabel sets λ(sym) to exactly the given propositions.
func (l *Labeling) SetLabel(sym alphabet.Symbol, props ...string) {
	m := make(map[string]bool, len(props))
	for _, p := range props {
		m[p] = true
	}
	l.labels[sym] = m
}

// Has reports whether prop ∈ λ(sym).
func (l *Labeling) Has(sym alphabet.Symbol, prop string) bool {
	return l.labels[sym][prop]
}

// Canonical returns the canonical Σ-labeling function λ_Σ of
// Definition 7.2: λ_Σ(a) = {a} for every letter a.
func Canonical(ab *alphabet.Alphabet) *Labeling {
	l := NewLabeling(ab)
	for _, sym := range ab.Symbols() {
		l.SetLabel(sym, ab.Name(sym))
	}
	return l
}

// CanonicalImage returns the canonical h-labeling function λ_{hΣΣ'} of
// Definition 7.3 for an abstracting homomorphism given by image:
// λ(a) = {h(a)} where the name of ε is "ε". Letters erased by the
// homomorphism therefore satisfy exactly the ε proposition.
func CanonicalImage(src, dst *alphabet.Alphabet, image func(alphabet.Symbol) alphabet.Symbol) *Labeling {
	l := NewLabeling(src)
	for _, sym := range src.Symbols() {
		img := image(sym)
		if img == alphabet.Epsilon {
			l.SetLabel(sym, alphabet.EpsilonName)
		} else {
			l.SetLabel(sym, dst.Name(img))
		}
	}
	return l
}
