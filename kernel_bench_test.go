package relive_test

import (
	"context"
	"fmt"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/genbase"
	"relive/internal/nfa"
	"relive/internal/word"
)

// Adversarial benchmark families for the inclusion/universality
// kernels. The finite-word family is the classic "k-th symbol from the
// end" language: its NFA has O(k) states but every DFA needs 2^k, so
// the on-the-fly subset construction explores exponentially many state
// sets while the antichain kernel keeps only the ⊆-minimal ones. The
// Büchi family drives a one-state a^ω automaton against a
// nondeterministic right-hand side that requires at least one b: the
// eager route builds the whole rank-based complement up front, the lazy
// route finds the a^ω counterexample after touching a handful of
// complement configurations. Each benchmark calls both routes directly
// as /kernel=subset and /kernel=antichain sub-benchmarks over the same
// instance, so the BENCH_*.json files record the head-to-head on
// identical inputs.

// kthFromEndNFA accepts words over ab whose k-th symbol from the end is
// sym: a k+1 state chain behind a guessing self-loop.
func kthFromEndNFA(ab *alphabet.Alphabet, k int, sym alphabet.Symbol) *nfa.NFA {
	a := nfa.New(ab)
	a.AddStates(k + 1)
	for _, s := range ab.Symbols() {
		a.AddTransition(0, s, 0)
	}
	a.AddTransition(0, sym, 1)
	for i := 1; i < k; i++ {
		for _, s := range ab.Symbols() {
			a.AddTransition(nfa.State(i), s, nfa.State(i+1))
		}
	}
	a.SetAccepting(nfa.State(k), true)
	a.SetInitial(0)
	return a
}

// kthTrapNFA accepts every word — the union of "k-th symbol from the
// end is s" over all s with "length < k" — but proving that universal
// via determinization takes 2^k state sets.
func kthTrapNFA(ab *alphabet.Alphabet, k int) *nfa.NFA {
	a := nfa.New(ab)
	// Short words: a chain of k all-accepting states.
	a.AddStates(k)
	for i := 0; i < k; i++ {
		a.SetAccepting(nfa.State(i), true)
	}
	for i := 0; i+1 < k; i++ {
		for _, s := range ab.Symbols() {
			a.AddTransition(nfa.State(i), s, nfa.State(i+1))
		}
	}
	a.SetInitial(0)
	// One k-th-from-end branch per alphabet symbol.
	for _, sym := range ab.Symbols() {
		base := a.NumStates()
		a.AddStates(k + 1)
		for _, s := range ab.Symbols() {
			a.AddTransition(nfa.State(base), s, nfa.State(base))
		}
		a.AddTransition(nfa.State(base), sym, nfa.State(base+1))
		for i := 1; i < k; i++ {
			for _, s := range ab.Symbols() {
				a.AddTransition(nfa.State(base+i), s, nfa.State(base+i+1))
			}
		}
		a.SetAccepting(nfa.State(base+k), true)
		a.SetInitial(nfa.State(base))
	}
	return a
}

// needsBBuchi is the Büchi right-hand side of the lazy-rank family: n
// chain states nondeterministically consumed by a's, an accepting sink
// reached only on a b. Its language is "at least one b", but the chain
// nondeterminism makes the rank-based complement enumerate rankings
// over ever-growing state sets.
func needsBBuchi(ab *alphabet.Alphabet, n int) *buchi.Buchi {
	syms := ab.Symbols()
	aSym, bSym := syms[0], syms[1]
	c := buchi.New(ab)
	for i := 0; i < n; i++ {
		c.AddState(false)
	}
	sink := c.AddState(true)
	for i := 0; i < n; i++ {
		c.AddTransition(buchi.State(i), aSym, buchi.State((i+1)%n))
		c.AddTransition(buchi.State(i), bSym, sink)
	}
	c.AddTransition(0, aSym, 0) // the guess that blows up determinization
	c.AddTransition(sink, aSym, sink)
	c.AddTransition(sink, bSym, sink)
	c.SetInitial(0)
	return c
}

// aOmega is the one-state Büchi automaton for a^ω.
func aOmega(ab *alphabet.Alphabet) *buchi.Buchi {
	a := buchi.New(ab)
	s := a.AddState(true)
	a.AddTransition(s, ab.Symbols()[0], s)
	a.SetInitial(s)
	return a
}

// The routes each family pits against each other, under the kernel
// names of the sub-benchmark labels: the classic subset (or eager
// complement) route and the antichain (or lazy rank) route.
var (
	universalRoutes = []struct {
		kernel string
		run    func(context.Context, *nfa.NFA) (bool, word.Word, error)
	}{{"subset", nfa.UniversalSubsetCtx}, {"antichain", nfa.UniversalAntichainCtx}}
	inclusionRoutes = []struct {
		kernel string
		run    func(context.Context, *nfa.NFA, *nfa.NFA) (bool, word.Word, error)
	}{{"subset", nfa.IncludedCtx}, {"antichain", nfa.IncludedAntichainCtx}}
	buchiInclusionRoutes = []struct {
		kernel string
		run    func(context.Context, *buchi.Buchi, *buchi.Buchi) (bool, word.Lasso, error)
	}{
		{"subset", func(_ context.Context, a, c *buchi.Buchi) (bool, word.Lasso, error) { return buchi.Included(a, c) }},
		{"antichain", buchi.IncludedRankCtx},
	}
)

func BenchmarkKthFromEndUniversality(b *testing.B) {
	ab := genbase.Letters(2)
	for _, k := range []int{8, 12, 16} {
		trap := kthTrapNFA(ab, k)
		for _, route := range universalRoutes {
			b.Run(fmt.Sprintf("k=%d/kernel=%s", k, route.kernel), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ok, _, err := route.run(nil, trap)
					if err != nil || !ok {
						b.Fatalf("universal=%v err=%v", ok, err)
					}
				}
			})
		}
	}
}

func BenchmarkKthFromEndInclusion(b *testing.B) {
	ab := genbase.Letters(2)
	for _, k := range []int{8, 12, 16} {
		left := kthFromEndNFA(ab, k, ab.Symbols()[0])
		trap := kthTrapNFA(ab, k)
		for _, route := range inclusionRoutes {
			b.Run(fmt.Sprintf("k=%d/kernel=%s", k, route.kernel), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ok, _, err := route.run(nil, left, trap)
					if err != nil || !ok {
						b.Fatalf("included=%v err=%v", ok, err)
					}
				}
			})
		}
	}
}

func BenchmarkLazyRankInclusion(b *testing.B) {
	ab := genbase.Letters(2)
	for _, n := range []int{2, 3} {
		left := aOmega(ab)
		right := needsBBuchi(ab, n)
		for _, route := range buchiInclusionRoutes {
			b.Run(fmt.Sprintf("n=%d/kernel=%s", n, route.kernel), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ok, l, err := route.run(nil, left, right)
					if err != nil {
						b.Fatal(err)
					}
					if ok || len(l.Loop) == 0 {
						b.Fatalf("inclusion unexpectedly holds (lasso %v)", l)
					}
				}
			})
		}
	}
}

// TestKernelAgreementAdversarial is the dual-route gate CI runs on the
// adversarial corpus: both routes must return the same verdict on
// every instance, and every counterexample must be a genuine member of
// the witness language. Benchmarks measure; this fails the build on
// divergence.
func TestKernelAgreementAdversarial(t *testing.T) {
	ab := genbase.Letters(2)
	for _, k := range []int{2, 4, 6, 8, 10} {
		trap := kthTrapNFA(ab, k)
		left := kthFromEndNFA(ab, k, ab.Symbols()[0])
		// Universality of the trap automaton, and with one branch's
		// accepting state cut so it stops being universal.
		for _, mutate := range []bool{false, true} {
			n := trap
			if mutate {
				n = trap.Clone()
				n.SetAccepting(nfa.State(n.NumStates()-1), false)
			}
			uniS, wS, err := nfa.UniversalSubsetCtx(nil, n)
			if err != nil {
				t.Fatal(err)
			}
			uniA, wA, err := nfa.UniversalAntichainCtx(nil, n)
			if err != nil {
				t.Fatal(err)
			}
			if uniS != uniA {
				t.Fatalf("k=%d mutate=%v: universality divergence: subset=%v antichain=%v", k, mutate, uniS, uniA)
			}
			if !uniA && (n.Accepts(wA) || n.Accepts(wS)) {
				t.Fatalf("k=%d mutate=%v: counterexample accepted by the automaton", k, mutate)
			}
		}
		// Inclusion left ⊆ trap (holds) and trap ⊆ left (fails).
		for _, pair := range [][2]*nfa.NFA{{left, trap}, {trap, left}} {
			okS, wS, err := nfa.IncludedCtx(nil, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			okA, wA, err := nfa.IncludedAntichainCtx(nil, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if okS != okA {
				t.Fatalf("k=%d: inclusion divergence: subset=%v antichain=%v", k, okS, okA)
			}
			if !okA {
				if len(wA) != len(wS) {
					t.Fatalf("k=%d: counterexample lengths diverge: subset %d, antichain %d", k, len(wS), len(wA))
				}
				if !pair[0].Accepts(wA) || pair[1].Accepts(wA) {
					t.Fatalf("k=%d: antichain counterexample not in L(a)\\L(b)", k)
				}
			}
		}
	}
	for _, n := range []int{2, 3} {
		left := aOmega(ab)
		right := needsBBuchi(ab, n)
		okE, lE, errE := buchi.Included(left, right)
		okL, lL, errL := buchi.IncludedRankCtx(nil, left, right)
		if (errE == nil) != (errL == nil) {
			t.Fatalf("n=%d: error divergence: eager %v, lazy %v", n, errE, errL)
		}
		if errE != nil {
			continue
		}
		if okE != okL {
			t.Fatalf("n=%d: Büchi inclusion divergence: eager=%v lazy=%v", n, okE, okL)
		}
		if !okL {
			if !left.AcceptsLasso(lL) || right.AcceptsLasso(lL) {
				t.Fatalf("n=%d: lazy lasso not in L(a)\\L(c)", n)
			}
			if !left.AcceptsLasso(lE) || right.AcceptsLasso(lE) {
				t.Fatalf("n=%d: eager lasso not in L(a)\\L(c)", n)
			}
		}
	}
}
