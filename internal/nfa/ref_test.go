package nfa

import "relive/internal/word"

// The product construction and the DFA complement below form the
// complement route that TestIncludedMatchesComplementRoute checks
// Included against; the tests read DFAs with Accepts.

// Intersect returns an NFA for L(a) ∩ L(b) via the product construction.
// Both automata must be over the same alphabet; ε-transitions are removed
// first (already ε-free operands are used as-is, without a copy).
func Intersect(a, b *NFA) *NFA {
	ae := a.epsFree()
	be := b.epsFree()
	out := New(a.ab)
	type pair struct{ x, y State }
	index := map[pair]State{}
	var queue []pair
	intern := func(p pair) State {
		if s, ok := index[p]; ok {
			return s
		}
		s := out.AddState(ae.accepting[p.x] && be.accepting[p.y])
		index[p] = s
		queue = append(queue, p)
		return s
	}
	for _, x := range ae.initial {
		for _, y := range be.initial {
			out.SetInitial(intern(pair{x, y}))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		p := queue[qi]
		from := index[p]
		for sym, xs := range ae.trans[p.x] {
			ys := be.trans[p.y][sym]
			for _, x := range xs {
				for _, y := range ys {
					out.AddTransition(from, sym, intern(pair{x, y}))
				}
			}
		}
	}
	return out
}

// Accepts reports whether the DFA accepts w.
func (d *DFA) Accepts(w word.Word) bool {
	if d.initial < 0 {
		return false
	}
	s := d.initial
	for _, sym := range w {
		t, ok := d.Delta(s, sym)
		if !ok {
			return false
		}
		s = t
	}
	return d.accepting[s]
}

// Complement returns a DFA for the complement language Σ* \ L(d).
func (d *DFA) Complement() *DFA {
	c := d.Complete()
	for i := range c.accepting {
		c.accepting[i] = !c.accepting[i]
	}
	return c
}
