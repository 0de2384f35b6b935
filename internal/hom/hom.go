// Package hom implements abstracting homomorphisms h : Σ → Σ' ∪ {ε}
// (Definition 6.1 of Nitsche & Wolper, PODC'97) and their action on
// words, ω-words, languages, automata and transition systems, together
// with a decision procedure for Ochsenschläger's simplicity condition
// (Definition 6.3) and the #-extension for maximal words ([20]).
package hom

import (
	"fmt"
	"sort"
	"strings"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/ts"
	"relive/internal/word"
)

// Hom is an abstracting homomorphism: a total map from the letters of a
// source alphabet to letters of a destination alphabet or ε.
type Hom struct {
	src, dst *alphabet.Alphabet
	img      map[alphabet.Symbol]alphabet.Symbol
}

// New returns a homomorphism between the given alphabets with no letter
// mappings yet; use Set, or Parse for the textual form. Letters left
// unmapped default to ε (hidden), keeping h total as Definition 6.1
// requires.
func New(src, dst *alphabet.Alphabet) *Hom {
	return &Hom{src: src, dst: dst, img: map[alphabet.Symbol]alphabet.Symbol{}}
}

// Source returns the concrete alphabet Σ.
func (h *Hom) Source() *alphabet.Alphabet { return h.src }

// Dest returns the abstract alphabet Σ'.
func (h *Hom) Dest() *alphabet.Alphabet { return h.dst }

// Set maps the source letter to the destination letter; use
// alphabet.Epsilon to hide the letter.
func (h *Hom) Set(src, dst alphabet.Symbol) { h.img[src] = dst }

// SetByName maps src to dst by name; an empty or "ε" dst hides the
// letter. Unknown names are interned in the respective alphabets.
func (h *Hom) SetByName(src, dst string) {
	s := h.src.Symbol(src)
	if dst == "" || dst == alphabet.EpsilonName {
		h.img[s] = alphabet.Epsilon
		return
	}
	h.img[s] = h.dst.Symbol(dst)
}

// Image returns h(sym); unmapped letters are hidden (ε).
func (h *Hom) Image(sym alphabet.Symbol) alphabet.Symbol {
	if d, ok := h.img[sym]; ok {
		return d
	}
	return alphabet.Epsilon
}

// Identity returns the homomorphism keeping the given letters of src
// (mapped to same-named letters of a fresh alphabet) and hiding all
// others — the common "observe these actions" abstraction from the
// paper's Section 2.
func Identity(src *alphabet.Alphabet, keep ...string) *Hom {
	dst := alphabet.New()
	h := New(src, dst)
	for _, name := range keep {
		h.SetByName(name, name)
	}
	return h
}

// Parse builds a homomorphism over src from a comma-separated list of
// "a=>x" items; "a=>" hides a. Example: "yes=>,no=>,request=>request".
func Parse(src *alphabet.Alphabet, spec string) (*Hom, error) {
	dst := alphabet.New()
	h := New(src, dst)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.SplitN(item, "=>", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("hom: bad mapping %q, want \"src=>dst\" or \"src=>\"", item)
		}
		from := strings.TrimSpace(parts[0])
		to := strings.TrimSpace(parts[1])
		if from == alphabet.EpsilonName {
			return nil, fmt.Errorf("hom: %s is not a source letter; h maps letters of Σ", alphabet.EpsilonName)
		}
		if _, ok := src.Lookup(from); !ok {
			return nil, fmt.Errorf("hom: unknown source letter %q", from)
		}
		h.SetByName(from, to)
	}
	return h, nil
}

// String renders the homomorphism as a mapping list.
func (h *Hom) String() string {
	var parts []string
	for _, s := range h.src.Symbols() {
		parts = append(parts, fmt.Sprintf("%s=>%s", h.src.Name(s), h.dst.Name(h.Image(s))))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Apply maps a finite word; erased letters disappear.
func (h *Hom) Apply(w word.Word) word.Word {
	out := make(word.Word, 0, len(w))
	for _, s := range w {
		if d := h.Image(s); d != alphabet.Epsilon {
			out = append(out, d)
		}
	}
	return out
}

// ApplyLasso maps an ultimately periodic ω-word. Following
// Definition 6.1, h(x) is undefined when lim(h(pre(x))) = ∅, i.e. when
// only finitely many letters of x survive; then ok is false.
func (h *Hom) ApplyLasso(l word.Lasso) (word.Lasso, bool) {
	loop := h.Apply(l.Loop)
	if len(loop) == 0 {
		return word.Lasso{}, false
	}
	return word.MustLasso(h.Apply(l.Prefix), loop), true
}

// ImageNFA returns an automaton for h(L(a)): labels are replaced by
// their images (erased letters become ε-transitions) and ε-transitions
// are then removed. The result is over the destination alphabet.
func (h *Hom) ImageNFA(a *nfa.NFA) *nfa.NFA {
	out := nfa.New(h.dst)
	for i := 0; i < a.NumStates(); i++ {
		out.AddState(a.Accepting(nfa.State(i)))
	}
	for i := 0; i < a.NumStates(); i++ {
		for _, sym := range h.src.Symbols() {
			for _, t := range a.Succ(nfa.State(i), sym) {
				out.AddTransition(nfa.State(i), h.Image(sym), nfa.State(t))
			}
		}
		// Preserve ε-transitions of the input as ε.
		for _, t := range a.Succ(nfa.State(i), alphabet.Epsilon) {
			out.AddTransition(nfa.State(i), alphabet.Epsilon, nfa.State(t))
		}
	}
	for _, s := range a.Initial() {
		out.SetInitial(nfa.State(s))
	}
	return out.RemoveEpsilon()
}

// ImageSystem returns a transition system for the abstract behavior: a
// deterministic minimal system whose language is h(L(s)) (pre-closure is
// preserved because s's language is prefix-closed). State names are
// generated (q0, q1, ...), with q0 initial.
func (h *Hom) ImageSystem(s *ts.System) (*ts.System, error) {
	a, err := s.NFA()
	if err != nil {
		return nil, err
	}
	d := h.ImageNFA(a.Trim()).Determinize().Minimize()
	if d.Initial() < 0 {
		return nil, fmt.Errorf("hom: abstract system is empty")
	}
	out := ts.New(h.dst)
	for i := 0; i < d.NumStates(); i++ {
		out.AddState(fmt.Sprintf("q%d", i))
	}
	for i := 0; i < d.NumStates(); i++ {
		for _, sym := range h.dst.Symbols() {
			if t, ok := d.Delta(nfa.State(i), sym); ok {
				from, _ := out.LookupState(fmt.Sprintf("q%d", i))
				to, _ := out.LookupState(fmt.Sprintf("q%d", t))
				out.AddTransition(from, sym, to)
			}
		}
	}
	init, _ := out.LookupState(fmt.Sprintf("q%d", d.Initial()))
	out.SetInitial(init)
	return out, nil
}

// InverseImageBuchi returns a Büchi automaton over the source alphabet
// for h^{-1}(L_ω(b)) = {x | h(x) defined and h(x) ∈ L_ω(b)}: erased
// letters stutter in b, and an additional Büchi constraint enforces that
// infinitely many letters survive (otherwise h(x) is undefined).
func (h *Hom) InverseImageBuchi(b *buchi.Buchi) *buchi.Buchi {
	// Track 1: b with erased letters stuttering.
	raw := buchi.New(h.src)
	for i := 0; i < b.NumStates(); i++ {
		raw.AddState(b.Accepting(buchi.State(i)))
	}
	for i := 0; i < b.NumStates(); i++ {
		for _, sym := range h.src.Symbols() {
			img := h.Image(sym)
			if img == alphabet.Epsilon {
				raw.AddTransition(buchi.State(i), sym, buchi.State(i))
				continue
			}
			for _, t := range b.Succ(buchi.State(i), img) {
				raw.AddTransition(buchi.State(i), sym, buchi.State(t))
			}
		}
	}
	for _, s := range b.Initial() {
		raw.SetInitial(buchi.State(s))
	}
	// Track 2: infinitely many non-erased letters.
	vis := buchi.New(h.src)
	wait := vis.AddState(false)
	saw := vis.AddState(true)
	for _, sym := range h.src.Symbols() {
		if h.Image(sym) == alphabet.Epsilon {
			vis.AddTransition(wait, sym, wait)
			vis.AddTransition(saw, sym, wait)
		} else {
			vis.AddTransition(wait, sym, saw)
			vis.AddTransition(saw, sym, saw)
		}
	}
	vis.SetInitial(wait)
	out, _ := buchi.IntersectCtx(nil, raw, vis) // a nil ctx never cancels
	return out
}

// Labeling returns the canonical h-labeling λ_{hΣΣ'} of Definition 7.3:
// concrete letters satisfy exactly the proposition naming their image,
// with erased letters satisfying the ε proposition.
func (h *Hom) Labeling() *ltl.Labeling {
	return ltl.CanonicalImage(h.src, h.dst, h.Image)
}
