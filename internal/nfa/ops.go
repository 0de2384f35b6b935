package nfa

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/interrupt"
	"relive/internal/word"
)

// IncludedCtx reports whether L(a) ⊆ L(b). When the inclusion fails,
// it returns a shortest word in L(a) \ L(b) as a counterexample.
//
// The check runs the subset construction of b on the fly: the BFS
// explores pairs of an a-state and an interned bitset of b-states,
// determinizing only the part of b that the product actually reaches. A
// pair whose a-state accepts while its b-set contains no accepting
// state witnesses the failure; the empty b-set is an ordinary interned
// set, playing the role of the complete complement DFA's sink.
//
// The loop is worst case exponential in b, so it polls ctx at a
// cooperative cancellation checkpoint; a nil ctx never cancels, and
// then the error is always nil.
func IncludedCtx(ctx context.Context, a, b *NFA) (bool, word.Word, error) {
	ae := a.epsFree()
	be := b.epsFree()
	ca, cb := ae.Compiled(), be.Compiled()
	nb := be.NumStates()
	syms := ae.ab.Symbols()
	numSyms := len(syms)

	accB := newStateBits(nb)
	for i, acc := range be.accepting {
		if acc {
			accB.set(int32(i))
		}
	}

	in := newSetInterner(nb)
	scratch := newStateBits(nb)
	var setAcc []bool // per interned set: does it contain an accepting b-state?
	var delta []int32 // memoized subset moves, delta[set*numSyms+sym-1]; -1 = not yet computed
	addSet := func(set stateBits) int32 {
		id, fresh := in.intern(set)
		if fresh {
			setAcc = append(setAcc, set.intersects(accB))
			for i := 0; i < numSyms; i++ {
				delta = append(delta, -1)
			}
		}
		return id
	}
	stepSet := func(set int32, sym alphabet.Symbol) int32 {
		k := int(set)*numSyms + int(sym) - 1
		if delta[k] >= 0 {
			return delta[k]
		}
		scratch.clear()
		cb.step(in.at(set), scratch, sym)
		id := addSet(scratch)
		delta[k] = id
		return id
	}

	start := newStateBits(nb)
	for _, s := range be.initial {
		start.set(int32(s))
	}
	startID := addSet(start)

	type pair struct {
		x   State
		set int32
	}
	type entry struct {
		p      pair
		parent int
		sym    alphabet.Symbol
	}
	var queue []entry
	seen := map[pair]bool{}
	push := func(p pair, parent int, sym alphabet.Symbol) {
		if !seen[p] {
			seen[p] = true
			queue = append(queue, entry{p: p, parent: parent, sym: sym})
		}
	}
	for _, x := range ae.initial {
		push(pair{x, startID}, -1, alphabet.Epsilon)
	}
	var tick interrupt.Tick
	for i := 0; i < len(queue); i++ {
		if err := tick.Poll(ctx); err != nil {
			return false, nil, err
		}
		cur := queue[i]
		if ae.accepting[cur.p.x] && !setAcc[cur.p.set] {
			var w word.Word
			for j := i; queue[j].parent != -1; j = queue[j].parent {
				w = append(w, queue[j].sym)
			}
			for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
				w[l], w[r] = w[r], w[l]
			}
			return false, w, nil
		}
		for _, sym := range syms {
			xs := ca.Row(cur.p.x, sym)
			if len(xs) == 0 {
				continue
			}
			set := stepSet(cur.p.set, sym)
			for _, x := range xs {
				push(pair{State(x), set}, i, sym)
			}
		}
	}
	return true, nil, nil
}

// LanguageEqual reports whether L(a) = L(b). On inequality it returns a
// word in the symmetric difference.
func LanguageEqual(a, b *NFA) (bool, word.Word) {
	// A nil ctx never cancels, so neither inclusion can fail.
	if ok, w, _ := IncludedCtx(nil, a, b); !ok {
		return false, w
	}
	if ok, w, _ := IncludedCtx(nil, b, a); !ok {
		return false, w
	}
	return true, nil
}

// IsPrefixClosed reports whether L(a) is prefix-closed, i.e.
// L = pre(L). On failure it returns a word in pre(L) \ L.
func (a *NFA) IsPrefixClosed() (bool, word.Word) {
	ok, w, _ := IncludedCtx(nil, a.PrefixLanguage(), a) // a nil ctx never cancels
	return ok, w
}

// EquivalentDFA reports whether two DFAs accept the same language, by a
// synchronous product walk over their completions.
func EquivalentDFA(a, b *DFA) bool {
	ac := a.Complete()
	bc := b.Complete()
	type pair struct{ x, y State }
	seen := map[pair]bool{}
	queue := []pair{{ac.Initial(), bc.Initial()}}
	seen[queue[0]] = true
	syms := a.ab.Symbols()
	for qi := 0; qi < len(queue); qi++ {
		p := queue[qi]
		if ac.Accepting(p.x) != bc.Accepting(p.y) {
			return false
		}
		for _, sym := range syms {
			x, _ := ac.Delta(p.x, sym)
			y, _ := bc.Delta(p.y, sym)
			np := pair{x, y}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true
}

// HasMaximalWords reports whether L(a) contains a maximal word: a word in
// L that is not a proper prefix of another word in L (the precondition of
// Theorems 8.2/8.3 requires h(L) to have none). On success it returns a
// maximal word as witness.
func (a *NFA) HasMaximalWords() (bool, word.Word) {
	// w ∈ L is maximal iff cont(w, L) ∩ Σ⁺ = ∅, i.e. from the
	// configuration reached by w no further word of L is readable.
	// Work on the trim DFA of L: a word is maximal iff it reaches an
	// accepting state from which no accepting state is reachable by a
	// nonempty path.
	d := a.Determinize().Trim()
	if d.NumStates() == 0 {
		return false, nil
	}
	n := d.NumStates()
	// canExtend[s]: an accepting state is reachable from s via ≥1 step.
	canExtend := make([]bool, n)
	// One backward pass suffices: iterate to fixpoint.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if canExtend[i] {
				continue
			}
			for _, t := range d.trans[i] {
				if d.accepting[t] || canExtend[t] {
					canExtend[i] = true
					changed = true
					break
				}
			}
		}
	}
	// Find a shortest path to an accepting, non-extendable state.
	nfa := d.ToNFA()
	for i := 0; i < n; i++ {
		nfa.SetAccepting(State(i), d.accepting[i] && !canExtend[i])
	}
	w, ok := nfa.ShortestAccepted()
	if !ok {
		return false, nil
	}
	return true, w
}
