package nfa

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/interrupt"
	"relive/internal/word"
)

// This file implements the antichain inclusion kernel
// (De Wulf–Doyen–Henzinger–Raskin style); universality is the inclusion
// of Σ* on the same routes. Like IncludedCtx it runs the subset
// construction of the right-hand side on the fly, but the frontier
// keeps only an antichain of ⊆-minimal b-sets per a-state: a candidate
// pair (x, T) is skipped when some kept pair (x, S) has S ⊆ cl(T),
// because then L_b(S) ⊆ L_b(T) and every counterexample through T is
// also one through S — which was discovered no later, so shortest
// counterexamples are preserved exactly. cl is the upward closure under
// the direct simulation preorder of simulation.go (the identity when the
// preorder is skipped for size), which widens plain ⊆-subsumption; the
// preorder additionally prunes any pair whose a-state is simulated by a
// member of its b-set outright, since such a pair can never witness a
// failure. Verdicts and counterexample lengths are bit-compatible with
// the subset route.

// autoAntichainMin is the right-hand-side state count from which
// inclusion (and so universality) runs the antichain route. Below it,
// the antichain bookkeeping cannot win anything and the classic subset
// route (and its exact exploration order) runs instead. RemoveEpsilon
// preserves the state count, so the pre-ε-removal count decides.
const autoAntichainMin = 16

// ResolveKernel names the route IncludedKernelCtx (and so Universal)
// runs against right-hand side b: "antichain" from autoAntichainMin
// states, "subset" below. Spans carry it as their kernel tag.
func ResolveKernel(b *NFA) string {
	if b.NumStates() >= autoAntichainMin {
		return "antichain"
	}
	return "subset"
}

// IncludedKernelCtx reports whether L(a) ⊆ L(b) on the route the size of
// b picks: the antichain kernel from autoAntichainMin states, the
// classic subset construction (IncludedCtx) below. Both return the same
// verdict and a counterexample of the same length.
func IncludedKernelCtx(ctx context.Context, a, b *NFA) (bool, word.Word, error) {
	if ResolveKernel(b) == "antichain" {
		return IncludedAntichainCtx(ctx, a, b)
	}
	return IncludedCtx(ctx, a, b)
}

// IncludedAntichain is IncludedAntichainCtx without cancellation.
func IncludedAntichain(a, b *NFA) (bool, word.Word) {
	ok, w, _ := IncludedAntichainCtx(nil, a, b)
	return ok, w
}

// IncludedAntichainCtx reports whether L(a) ⊆ L(b) using the antichain
// kernel, returning a shortest word in L(a) \ L(b) when the inclusion
// fails. See the file comment for the algorithm; agreement with
// IncludedCtx (same verdict, same counterexample length) is pinned by
// the differential tests and the fuzz target.
func IncludedAntichainCtx(ctx context.Context, a, b *NFA) (bool, word.Word, error) {
	return includedAntichain(ctx, a, b, simulationCap)
}

// includedAntichain is IncludedAntichainCtx with the simulation-seeding
// cap as a parameter; cap 0 disables seeding.
func includedAntichain(ctx context.Context, a, b *NFA, cap int) (bool, word.Word, error) {
	ae := a.epsFree()
	be := b.epsFree()
	nb := be.NumStates()
	if nb == 0 {
		// L(b) is empty; inclusion holds iff L(a) is too.
		if w, ok := ae.ShortestAccepted(); ok {
			return false, w, nil
		}
		return true, nil, nil
	}
	ca, cb := ae.Compiled(), be.Compiled()
	na := ae.NumStates()
	syms := ae.ab.Symbols()
	numSyms := len(syms)

	accB := newStateBits(nb)
	for i, acc := range be.accepting {
		if acc {
			accB.set(int32(i))
		}
	}

	simBelow, cross := inclusionPreorder(ae, be, cap)

	in := newSetInterner(nb)
	scratch := newStateBits(nb)
	var setAcc []bool        // per interned set: does it contain an accepting b-state?
	var closures []stateBits // per interned set T: its upward closure cl(T)
	var delta []int32        // memoized subset moves, delta[set*numSyms+sym-1]; -1 = not yet computed
	addSet := func(set stateBits) int32 {
		id, fresh := in.intern(set)
		if fresh {
			setAcc = append(setAcc, set.intersects(accB))
			cl := newStateBits(nb)
			if simBelow == nil {
				copy(cl, set)
			} else {
				set.forEach(func(q int32) { cl.or(simBelow[q]) })
			}
			closures = append(closures, cl)
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

	type entry struct {
		x      State
		set    int32
		parent int32
		sym    alphabet.Symbol
	}
	var queue []entry
	// kept[x] is the antichain of interned b-set ids paired with x.
	// Entries are retired when a later set dominates them (lossless for
	// future subsumption checks, by transitivity of the preorder), but
	// their queued pairs still expand: dominating sets are discovered no
	// earlier than what they retire, so cutting the retiree's subtree
	// could lengthen the counterexample.
	kept := make([][]int32, na)
	// push admits the pair (x, set) unless pruned, and reports the queue
	// index of a bad pair (a-accepting, no accepting b-state) or -1.
	// Detection happens here at push time rather than at pop: a pruned
	// bad pair would imply an earlier kept pair that was already bad at
	// its own push, so pruned pairs need no check.
	push := func(x State, set int32, parent int32, sym alphabet.Symbol) int32 {
		if cross != nil && cross[x].intersects(in.at(set)) {
			return -1
		}
		clT := closures[set]
		ks := kept[x]
		for _, sid := range ks {
			if in.at(sid).subsetOf(clT) {
				return -1
			}
		}
		// Retire kept sets the new pair dominates.
		w := 0
		t := in.at(set)
		for _, sid := range ks {
			if !t.subsetOf(closures[sid]) {
				ks[w] = sid
				w++
			}
		}
		kept[x] = append(ks[:w], set)
		queue = append(queue, entry{x: x, set: set, parent: parent, sym: sym})
		if ae.accepting[x] && !setAcc[set] {
			return int32(len(queue) - 1)
		}
		return -1
	}

	start := newStateBits(nb)
	for _, s := range be.initial {
		start.set(int32(s))
	}
	startID := addSet(start)

	bad := int32(-1)
	for _, x := range ae.initial {
		if bad = push(x, startID, -1, alphabet.Epsilon); bad >= 0 {
			break
		}
	}
	var tick interrupt.Tick
	for i := 0; bad < 0 && i < len(queue); i++ {
		if err := tick.Poll(ctx); err != nil {
			return false, nil, err
		}
		cur := queue[i]
		for _, sym := range syms {
			xs := ca.Row(cur.x, sym)
			if len(xs) == 0 {
				continue
			}
			set := stepSet(cur.set, sym)
			for _, x := range xs {
				if bad = push(State(x), set, int32(i), sym); bad >= 0 {
					break
				}
			}
			if bad >= 0 {
				break
			}
		}
	}
	if bad < 0 {
		return true, nil, nil
	}
	var w word.Word
	for j := bad; queue[j].parent != -1; j = queue[j].parent {
		w = append(w, queue[j].sym)
	}
	for l, r := 0, len(w)-1; l < r; l, r = l+1, r-1 {
		w[l], w[r] = w[r], w[l]
	}
	return false, w, nil
}

// Universal reports whether L(a) = Σ*, with a shortest rejected word as
// counterexample. It decides the inclusion Σ* ⊆ L(a), Σ* being
// SigmaStar over a's alphabet, on the route the size of a picks.
func Universal(a *NFA) (bool, word.Word) {
	ok, w, _ := IncludedKernelCtx(nil, SigmaStar(a.ab), a)
	return ok, w
}
