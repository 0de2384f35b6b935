// Differential tests for the antichain inclusion kernel: on randomized
// automaton pairs, Σ* among the left operands (universality), the
// antichain route must agree with the classic subset-construction route
// bit-for-bit on verdicts, produce genuine counterexamples (members of
// L(a) \ L(b)), and match the subset route's counterexample length
// (both return shortest words). Failing pairs are greedily shrunk
// before reporting.
//
// The package is nfa_test (not nfa) so it can import genbase, which
// itself imports nfa.
package nfa_test

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
	"relive/internal/nfa"
)

// rebuildNFA copies a keeping only admitted states and transitions.
// Initial markings on dropped states are dropped with them.
func rebuildNFA(a *nfa.NFA, keepState func(nfa.State) bool, keepTrans func(from nfa.State, sym alphabet.Symbol, to nfa.State) bool) *nfa.NFA {
	out := nfa.New(a.Alphabet())
	remap := make([]nfa.State, a.NumStates())
	for i := 0; i < a.NumStates(); i++ {
		s := nfa.State(i)
		if keepState(s) {
			remap[i] = out.AddState(a.Accepting(s))
		} else {
			remap[i] = -1
		}
	}
	syms := append([]alphabet.Symbol{alphabet.Epsilon}, a.Alphabet().Symbols()...)
	for i := 0; i < a.NumStates(); i++ {
		from := nfa.State(i)
		if remap[i] < 0 {
			continue
		}
		for _, sym := range syms {
			for _, to := range a.Succ(from, sym) {
				if remap[to] >= 0 && keepTrans(from, sym, to) {
					out.AddTransition(remap[i], sym, remap[to])
				}
			}
		}
	}
	for _, s := range a.Initial() {
		if remap[s] >= 0 {
			out.SetInitial(remap[s])
		}
	}
	return out
}

// rerooted copies a with the single initial state s.
func rerooted(a *nfa.NFA, s nfa.State) *nfa.NFA {
	out := nfa.New(a.Alphabet())
	for i := 0; i < a.NumStates(); i++ {
		out.AddState(a.Accepting(nfa.State(i)))
	}
	syms := append([]alphabet.Symbol{alphabet.Epsilon}, a.Alphabet().Symbols()...)
	for i := 0; i < a.NumStates(); i++ {
		for _, sym := range syms {
			for _, to := range a.Succ(nfa.State(i), sym) {
				out.AddTransition(nfa.State(i), sym, to)
			}
		}
	}
	out.SetInitial(s)
	return out
}

// shrinkNFA greedily minimizes a while keep(candidate) stays true,
// dropping one transition, then one state, per step to a fixpoint.
func shrinkNFA(a *nfa.NFA, keep func(*nfa.NFA) bool) *nfa.NFA {
	step := func(cur *nfa.NFA) (*nfa.NFA, bool) {
		syms := append([]alphabet.Symbol{alphabet.Epsilon}, cur.Alphabet().Symbols()...)
		edge := 0
		for i := 0; i < cur.NumStates(); i++ {
			for _, sym := range syms {
				for range cur.Succ(nfa.State(i), sym) {
					drop := edge
					edge++
					e := 0
					cand := rebuildNFA(cur,
						func(nfa.State) bool { return true },
						func(nfa.State, alphabet.Symbol, nfa.State) bool {
							keepIt := e != drop
							e++
							return keepIt
						})
					if keep(cand) {
						return cand, true
					}
				}
			}
		}
		for i := 0; i < cur.NumStates(); i++ {
			dead := nfa.State(i)
			cand := rebuildNFA(cur,
				func(s nfa.State) bool { return s != dead },
				func(nfa.State, alphabet.Symbol, nfa.State) bool { return true })
			if keep(cand) {
				return cand, true
			}
		}
		return nil, false
	}
	for {
		next, ok := step(a)
		if !ok {
			return a
		}
		a = next
	}
}

// inclusionAgrees reports whether the antichain and subset routes agree
// on the pair: same verdict, same counterexample length, and a genuine
// counterexample from the antichain route.
func inclusionAgrees(a, b *nfa.NFA) bool {
	okS, wS := nfa.Included(a, b)
	okA, wA := nfa.IncludedAntichain(a, b)
	if okS != okA {
		return false
	}
	if okS {
		return true
	}
	return len(wS) == len(wA) && a.Accepts(wA) && !b.Accepts(wA)
}

func TestIncludedAntichainMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []genbase.Config{
		{States: 4, Symbols: 2, Density: 0.6, AcceptRatio: 0.4},
		{States: 8, Symbols: 2, Density: 0.5, AcceptRatio: 0.3},
		{States: 12, Symbols: 3, Density: 0.4, AcceptRatio: 0.3},
		{States: 20, Symbols: 2, Density: 0.3, AcceptRatio: 0.2},
	}
	for trial := 0; trial < 400; trial++ {
		cfg := shapes[trial%len(shapes)]
		ab := genbase.Letters(cfg.Symbols)
		a := genbase.NFA(rng, cfg, ab)
		b := genbase.NFA(rng, cfg, ab)
		// Exercise the ε paths too: occasionally splice ε-transitions in.
		if trial%5 == 0 && a.NumStates() > 1 {
			a.AddTransition(0, alphabet.Epsilon, nfa.State(rng.Intn(a.NumStates())))
		}
		if !inclusionAgrees(a, b) {
			a = shrinkNFA(a, func(cand *nfa.NFA) bool { return !inclusionAgrees(cand, b) })
			b = shrinkNFA(b, func(cand *nfa.NFA) bool { return !inclusionAgrees(a, cand) })
			okS, wS := nfa.Included(a, b)
			okA, wA := nfa.IncludedAntichain(a, b)
			t.Fatalf("trial %d: antichain/subset divergence (shrunk)\nsubset: ok=%v w=%v\nantichain: ok=%v w=%v\na=%v\nb=%v",
				trial, okS, wS, okA, wA, a, b)
		}
	}
}

// TestUniversalAntichainMatchesSubset runs the inclusion differential
// with Σ* as the left operand, which is how Universal decides
// universality.
func TestUniversalAntichainMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		cfg := genbase.Config{
			States:      2 + rng.Intn(14),
			Symbols:     1 + rng.Intn(2),
			Density:     0.3 + rng.Float64(),
			AcceptRatio: 0.3 + 0.5*rng.Float64(),
		}
		ab := genbase.Letters(cfg.Symbols)
		star := nfa.SigmaStar(ab)
		a := genbase.NFA(rng, cfg, ab)
		if !inclusionAgrees(star, a) {
			a = shrinkNFA(a, func(cand *nfa.NFA) bool { return !inclusionAgrees(star, cand) })
			okS, wS := nfa.Included(star, a)
			okA, wA := nfa.IncludedAntichain(star, a)
			t.Fatalf("trial %d: Σ* inclusion divergence (shrunk)\nsubset: ok=%v w=%v\nantichain: ok=%v w=%v\na=%v",
				trial, okS, wS, okA, wA, a)
		}
	}
}

func TestDirectSimulationImpliesInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		cfg := genbase.Config{States: 6, Symbols: 2, Density: 0.6, AcceptRatio: 0.4}
		ab := genbase.Letters(cfg.Symbols)
		a := genbase.NFA(rng, cfg, ab)
		sim := a.DirectSimulation()
		for p := 0; p < a.NumStates(); p++ {
			if !sim[p][p] {
				t.Fatalf("trial %d: simulation not reflexive at %d", trial, p)
			}
			for q := 0; q < a.NumStates(); q++ {
				if !sim[p][q] {
					continue
				}
				// L(p) ⊆ L(q): compare the automata re-rooted at p and q.
				if ok, w := nfa.Included(rerooted(a, nfa.State(p)), rerooted(a, nfa.State(q))); !ok {
					t.Fatalf("trial %d: %d ≼ %d but L(%d) ⊄ L(%d), witness %v", trial, p, q, p, q, w)
				}
			}
		}
	}
}

// TestResolveKernelThreshold pins the size dispatch: the antichain
// route from autoAntichainMin = 16 right-hand states, subset below.
func TestResolveKernelThreshold(t *testing.T) {
	ab := genbase.Letters(2)
	for _, tc := range []struct {
		states int
		want   string
	}{{4, "subset"}, {15, "subset"}, {16, "antichain"}, {64, "antichain"}} {
		b := nfa.New(ab)
		for i := 0; i < tc.states; i++ {
			b.AddState(true)
		}
		if got := nfa.ResolveKernel(b); got != tc.want {
			t.Fatalf("%d-state rhs routes to %s, want %s", tc.states, got, tc.want)
		}
	}
}
