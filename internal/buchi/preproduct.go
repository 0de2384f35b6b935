package buchi

import (
	"context"

	"relive/internal/alphabet"
	"relive/internal/graph"
	"relive/internal/interrupt"
	"relive/internal/nfa"
)

// PreProductNFACtx computes pre(L_ω(a) ∩ L_ω(c)) as an NFA in one fused
// pass, replacing the materialized chain
//
//	IntersectCtx(a, c) → PrefixNFA (= Reduce → ToNFA → MarkAllAccepting) → Trim
//
// that built and discarded four intermediate automata. The product is
// explored once into flat edge lists, the reduction (accepting-cycle
// SCCs + co-reachability) runs on that graph directly, and the
// surviving states are emitted straight into the output NFA.
//
// The output is bit-identical to the chain above — same state
// numbering, same per-(state, symbol) transition rows, same initial
// order — because the product interning replicates IntersectCtx's BFS
// discovery order, the reduction keeps survivors in ascending product
// order exactly as Reduce does, and the chain's trailing Trim is an
// identity renumbering on this shape (every PrefixNFA state is
// reachable and accepting, hence trivially co-reachable). Downstream
// inclusion checks therefore see the same automaton either way; the
// equivalence tests in preproduct_test.go pin the construction, not
// just the language. It returns the number of product states explored,
// for instrumentation.
func PreProductNFACtx(ctx context.Context, a, c *Buchi) (*nfa.NFA, int, error) {
	// Mirror IntersectCtx: plain product when either operand accepts
	// with every state (the pipeline's left operand, a lim(L) automaton,
	// always does), the two-track product otherwise.
	plain := a.allAccepting() || c.allAccepting()
	ca, cc := a.compiled(), c.compiled()

	index := map[pkey]int32{}
	var states []pkey
	var acc []bool
	intern := func(k pkey) int32 {
		if id, ok := index[k]; ok {
			return id
		}
		id := int32(len(states))
		index[k] = id
		states = append(states, k)
		if plain {
			acc = append(acc, a.accepting[k.x] && c.accepting[k.y])
		} else {
			acc = append(acc, k.track == 1 && c.accepting[k.y])
		}
		return id
	}

	var inits []int32
	for _, x := range a.initial {
		for _, y := range c.initial {
			inits = append(inits, intern(pkey{int32(x), int32(y), 0}))
		}
	}

	syms := a.ab.Size()
	edges := [][]pedge{}
	var tick interrupt.Tick
	for qi := 0; qi < len(states); qi++ {
		if err := tick.Poll(ctx); err != nil {
			return nil, len(states), err
		}
		k := states[qi]
		track := k.track
		if !plain {
			if track == 0 && a.accepting[k.x] {
				track = 1
			} else if track == 1 && c.accepting[k.y] {
				track = 0
			}
		}
		var row []pedge
		for sym := 1; sym <= syms; sym++ {
			xs := ca.row(State(k.x), alphabet.Symbol(sym))
			if len(xs) == 0 {
				continue
			}
			ys := cc.row(State(k.y), alphabet.Symbol(sym))
			for _, x := range xs {
				for _, y := range ys {
					row = append(row, pedge{to: intern(pkey{x, y, track}), sym: alphabet.Symbol(sym)})
				}
			}
		}
		edges = append(edges, row)
	}

	n := len(states)
	explored := n
	out := nfa.New(a.ab)
	if n == 0 {
		return out, explored, nil
	}

	// The reduction of Reduce, on the flat edges: keep states that can
	// reach an accepting cycle. (Reachability from the initial states
	// holds for every product state by construction.)
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(edges[v]))
	}
	dst := make([]int32, off[n])
	for v := 0; v < n; v++ {
		at := off[v]
		for i, e := range edges[v] {
			dst[at+int32(i)] = e.to
		}
	}
	g := graph.CSR{Off: off, Dst: dst}
	onAcceptingCycle := make([]bool, n)
	for _, comp := range graph.SCCs(g) {
		if graph.IsTrivialSCC(comp, g) {
			continue
		}
		hasAcc := false
		for _, v := range comp {
			if acc[v] {
				hasAcc = true
				break
			}
		}
		if hasAcc {
			for _, v := range comp {
				onAcceptingCycle[v] = true
			}
		}
	}
	live := graph.CoReachable(g, onAcceptingCycle)

	// Emit survivors in ascending product order (Reduce's numbering),
	// every state accepting (MarkAllAccepting): the finite-path language
	// from the initial states is exactly pre(L_ω(a) ∩ L_ω(c)).
	keep := make([]nfa.State, n)
	for i := range keep {
		keep[i] = -1
	}
	for i := 0; i < n; i++ {
		if live[i] {
			keep[i] = out.AddState(true)
		}
	}
	for i := 0; i < n; i++ {
		if keep[i] < 0 {
			continue
		}
		for _, e := range edges[i] {
			if keep[e.to] >= 0 {
				out.AddTransition(keep[i], e.sym, keep[e.to])
			}
		}
	}
	for _, id := range inits {
		if keep[id] >= 0 {
			out.SetInitial(keep[id])
		}
	}
	return out, explored, nil
}
