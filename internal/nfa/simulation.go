package nfa

import "relive/internal/alphabet"

// This file computes direct (strong) simulation preorders on NFAs — the
// finite-word analogue of internal/buchi/simulation.go — used to seed
// the antichain inclusion kernel: q simulating p implies
// L(p) ⊆ L(q), which widens the antichain subsumption test from plain
// set inclusion to inclusion up to simulation and lets the search drop
// pairs whose left state is simulated by a right state outright.

// simulationCap bounds the pair space of the simulation fixpoints
// seeding the antichain kernel. Larger inputs skip the preorder and
// fall back to the identity (plain ⊆ subsumption), which keeps the
// seeding cost negligible next to the search it accelerates. The cap is
// deliberately small: the fixpoint costs pairs × edges × rounds, and on
// mid-size non-adversarial operands (where the subset search is already
// cheap) a preorder over ~10⁴ pairs costs more than the whole search it
// would prune — the antichain's ⊆-minimality carries the asymptotic win
// on its own. Verdicts and counterexample lengths are identical at any
// cap, 0 (no seeding) included: the preorder only widens subsumption,
// it never changes what the search can find.
const simulationCap = 1 << 12

// DirectSimulation computes the direct simulation preorder on the
// automaton's states as a greatest fixpoint: sim[p][q] means q
// direct-simulates p, i.e. q is accepting whenever p is, and every
// a-successor of p is direct-simulated by some a-successor of q. Direct
// simulation implies language inclusion L(p) ⊆ L(q). ε-transitions are
// eliminated first; the state numbering is unchanged by that step.
func (a *NFA) DirectSimulation() [][]bool {
	e := a.epsFree()
	n := e.NumStates()
	sim := make([][]bool, n)
	for p := 0; p < n; p++ {
		sim[p] = make([]bool, n)
		for q := 0; q < n; q++ {
			// Initial over-approximation: acceptance condition only.
			sim[p][q] = !e.accepting[p] || e.accepting[q]
		}
	}
	syms := e.ab.Symbols()
	for changed := true; changed; {
		changed = false
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if !sim[p][q] {
					continue
				}
				if !simStep(sim, e, e, p, q, syms) {
					sim[p][q] = false
					changed = true
				}
			}
		}
	}
	return sim
}

// crossSimulation computes direct simulation of ae's states by be's
// states: sim[x][q] means q ∈ be direct-simulates x ∈ ae, hence
// L_ae(x) ⊆ L_be(q). Both automata must be ε-free and share an
// alphabet.
func crossSimulation(ae, be *NFA) [][]bool {
	na, nb := ae.NumStates(), be.NumStates()
	sim := make([][]bool, na)
	for x := 0; x < na; x++ {
		sim[x] = make([]bool, nb)
		for q := 0; q < nb; q++ {
			sim[x][q] = !ae.accepting[x] || be.accepting[q]
		}
	}
	syms := ae.ab.Symbols()
	for changed := true; changed; {
		changed = false
		for x := 0; x < na; x++ {
			for q := 0; q < nb; q++ {
				if !sim[x][q] {
					continue
				}
				if !simStep(sim, ae, be, x, q, syms) {
					sim[x][q] = false
					changed = true
				}
			}
		}
	}
	return sim
}

// simStep checks the one-step simulation condition for the pair (p, q)
// under the current relation: every successor of p (in left) is related
// to some same-symbol successor of q (in right).
func simStep(sim [][]bool, left, right *NFA, p, q int, syms []alphabet.Symbol) bool {
	for _, a := range syms {
		for _, ps := range left.trans[p][a] {
			matched := false
			for _, qs := range right.trans[q][a] {
				if sim[ps][qs] {
					matched = true
					break
				}
			}
			if !matched {
				return false
			}
		}
	}
	return true
}

// inclusionPreorder computes the simulation data the antichain
// inclusion check IncludedAntichainCtx uses, over the (ε-free)
// operands:
//
//   - simBelow[q], for q ∈ be: the bitset of be-states p with p ≼ q.
//     The upward closure cl(T) = ∪_{q∈T} simBelow[q] of a b-set T is
//     what antichain subsumption tests against.
//   - cross[x], for x ∈ ae: the bitset of be-states q with x ≼ q.
//     A pair (x, T) with cross[x] ∩ T ≠ ∅ satisfies L(x) ⊆ L_b(T) and
//     can never witness an inclusion failure.
//
// Returns (nil, nil) when the pair space exceeds cap (or cap disables
// seeding); the caller then falls back to the identity preorder.
func inclusionPreorder(ae, be *NFA, cap int) (simBelow, cross []stateBits) {
	na, nb := ae.NumStates(), be.NumStates()
	if cap <= 0 || nb == 0 || nb*nb+na*nb > cap {
		return nil, nil
	}
	simBB := be.DirectSimulation()
	simBelow = make([]stateBits, nb)
	for q := 0; q < nb; q++ {
		simBelow[q] = newStateBits(nb)
		for p := 0; p < nb; p++ {
			if simBB[p][q] {
				simBelow[q].set(int32(p))
			}
		}
	}
	simAB := crossSimulation(ae, be)
	cross = make([]stateBits, na)
	for x := 0; x < na; x++ {
		cross[x] = newStateBits(nb)
		for q := 0; q < nb; q++ {
			if simAB[x][q] {
				cross[x].set(int32(q))
			}
		}
	}
	return simBelow, cross
}
