package hom

import (
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/nfa"
	"relive/internal/word"
)

// SimplicityResult reports the outcome of the simplicity decision
// procedure. When Simple is false, Witness is a word w ∈ L for which
// Definition 6.3 fails: no continuation u of h(w) in h(L) ever makes the
// abstract continuations cont(u, cont(h(w), h(L))) coincide with the
// image continuations cont(u, h(cont(w, L))).
type SimplicityResult struct {
	Simple  bool
	Witness word.Word
}

// IsSimple decides whether h is simple for the regular language L(a)
// (Definition 6.3): for every w ∈ L there must be a continuation
// u ∈ cont(h(w), h(L)) with
//
//	cont(u, cont(h(w), h(L))) = cont(u, h(cont(w, L))).
//
// The procedure exploits regularity: cont(w, L) depends only on the
// state set reached by w in a DFA D for L, and cont(h(w), h(L)) on the
// state reached by h(w) in a DFA D' for h(L). A synchronized
// exploration enumerates the finitely many reachable (state, state)
// pairs; for each pair the existence of a suitable u is a reachability
// question in the product of the two residual DFAs, asking for a pair of
// states with equal residual languages (decided by partition
// refinement on their disjoint union).
func (h *Hom) IsSimple(a *nfa.NFA) (SimplicityResult, error) {
	d := a.Determinize().Trim()
	if d.Initial() < 0 {
		// Empty language: vacuously simple.
		return SimplicityResult{Simple: true}, nil
	}
	img := h.ImageNFA(a)
	dImg := img.Determinize().Trim()
	dImgC := dImg.Complete()
	if dImg.Initial() < 0 {
		return SimplicityResult{}, fmt.Errorf("hom: image language is empty but source is not")
	}

	// Synchronized exploration of (state of w in d, state of h(w) in dImg).
	type pair struct{ q, qi nfa.State }
	type entry struct {
		p      pair
		parent int
		sym    alphabet.Symbol
	}
	var queue []entry
	seen := map[pair]bool{}
	start := pair{d.Initial(), dImg.Initial()}
	seen[start] = true
	queue = append(queue, entry{p: start, parent: -1})

	wordTo := func(i int) word.Word {
		var w word.Word
		for j := i; queue[j].parent != -1; j = queue[j].parent {
			w = append(w, queue[j].sym)
		}
		for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
			w[l], w[r] = w[r], w[l]
		}
		return w
	}

	analyze := h.analyzer(d, dImgC)
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if d.Accepting(cur.p.q) {
			// w ∈ L: check Definition 6.3 for this configuration.
			ok, err := h.pairIsSimple(dImgC, cur.p.qi, analyze, cur.p.q)
			if err != nil {
				return SimplicityResult{}, err
			}
			if !ok {
				return SimplicityResult{Simple: false, Witness: wordTo(i)}, nil
			}
		}
		for _, sym := range h.src.Symbols() {
			qn, ok := d.Delta(cur.p.q, sym)
			if !ok {
				continue
			}
			qin := cur.p.qi
			if imgSym := h.Image(sym); imgSym != alphabet.Epsilon {
				t, ok := dImg.Delta(cur.p.qi, imgSym)
				if !ok {
					// h(wa) ∈ pre(h(L)) must hold; a missing transition
					// can only mean the trim removed a dead branch, which
					// cannot happen for prefixes of h(L).
					return SimplicityResult{}, fmt.Errorf(
						"hom: internal: image DFA lacks transition for a prefix of h(L)")
				}
				qin = t
			}
			np := pair{qn, qin}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, entry{p: np, parent: i, sym: sym})
			}
		}
	}
	return SimplicityResult{Simple: true}, nil
}

// analyzer returns the residual-image analysis of each configuration q
// of the concrete DFA d against the completed image DFA dImgC, built on
// first use and cached per q.
func (h *Hom) analyzer(d, dImgC *nfa.DFA) func(nfa.State) (*qAnalysis, error) {
	cache := map[nfa.State]*qAnalysis{}
	return func(q nfa.State) (*qAnalysis, error) {
		if an, ok := cache[q]; ok {
			return an, nil
		}
		// C_q: DFA for h(cont-of-configuration-q) = h(L(d from q)).
		resid := d.ToNFA().ResidualFrom([]nfa.State{q})
		cq := h.ImageNFA(resid).Determinize().Complete()
		union, offset, err := disjointUnion(dImgC, cq)
		if err != nil {
			return nil, err
		}
		an := &qAnalysis{
			union:   union,
			classes: union.StateEquivalence(),
			offset:  offset,
			cInit:   cq.Initial(),
		}
		cache[q] = an
		return an, nil
	}
}

// pairIsSimple decides Definition 6.3 for one reachable configuration:
// q is the D-state of w, qi the D'-state of h(w). It searches the
// product of (dImgC from qi) and (C_q from its initial state) for a
// reachable pair (b, c) with b accepting — so the u read so far lies in
// cont(h(w), h(L)) — and equal residual languages.
func (h *Hom) pairIsSimple(
	dImgC *nfa.DFA,
	qi nfa.State,
	analyze func(nfa.State) (*qAnalysis, error),
	q nfa.State,
) (bool, error) {
	an, err := analyze(q)
	if err != nil {
		return false, err
	}
	type ppair struct{ b, c nfa.State }
	seen := map[ppair]bool{}
	queue := []ppair{{qi, an.cInit}}
	seen[queue[0]] = true
	for qi := 0; qi < len(queue); qi++ {
		p := queue[qi]
		if dImgC.Accepting(p.b) &&
			an.classes[int(p.b)] == an.classes[an.offset+int(p.c)] {
			return true, nil
		}
		for _, sym := range h.dst.Symbols() {
			b2, ok1 := dImgC.Delta(p.b, sym)
			c2, ok2 := an.union.Delta(nfa.State(an.offset)+p.c, sym)
			if !ok1 || !ok2 {
				continue // complete DFAs: cannot happen
			}
			np := ppair{b2, c2 - nfa.State(an.offset)}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return false, nil
}

// qAnalysis caches, per configuration q of the concrete DFA, the
// disjoint union of the abstract DFA and C_q = DFA(h(cont(w, L))) for w
// reaching q, completed, with its residual-language equivalence classes.
type qAnalysis struct {
	union   *nfa.DFA // disjoint union of dImgC and C_q, complete
	classes []int    // residual-language equivalence classes of union
	offset  int      // index offset of C_q's states in union
	cInit   nfa.State
}

// disjointUnion combines two complete DFAs over the same alphabet into
// one DFA (initial state taken from the first); the second automaton's
// states are shifted by the returned offset.
func disjointUnion(a, b *nfa.DFA) (*nfa.DFA, int, error) {
	if a.Initial() < 0 || b.Initial() < 0 {
		return nil, 0, fmt.Errorf("hom: disjoint union of empty DFA")
	}
	out := nfa.NewDFA(a.Alphabet())
	for i := 0; i < a.NumStates(); i++ {
		out.AddState(a.Accepting(nfa.State(i)))
	}
	offset := a.NumStates()
	for i := 0; i < b.NumStates(); i++ {
		out.AddState(b.Accepting(nfa.State(i)))
	}
	for i := 0; i < a.NumStates(); i++ {
		for _, sym := range a.Alphabet().Symbols() {
			if t, ok := a.Delta(nfa.State(i), sym); ok {
				out.SetTransition(nfa.State(i), sym, t)
			}
		}
	}
	for i := 0; i < b.NumStates(); i++ {
		for _, sym := range b.Alphabet().Symbols() {
			if t, ok := b.Delta(nfa.State(i), sym); ok {
				out.SetTransition(nfa.State(offset+i), sym, nfa.State(offset)+t)
			}
		}
	}
	out.SetInitial(a.Initial())
	return out, offset, nil
}
