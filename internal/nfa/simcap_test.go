// Differential test for the simulation-seeding cap: at cap 0 the
// antichain kernel runs with identity subsumption only, and its
// verdicts and counterexample lengths must match both the fully-seeded
// antichain route and the classic subset route on every input, Σ* as
// the left operand (universality) included. The
// seeding is a pure pruning aid; this pins that turning it off is
// always safe.
package nfa_test

import (
	"math/rand"
	"testing"

	"relive/internal/genbase"
	"relive/internal/nfa"
)

func TestSimulationCapZeroKeepsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const unseeded, seeded = 0, 1 << 20
	shapes := []genbase.Config{
		{States: 6, Symbols: 2, Density: 0.5, AcceptRatio: 0.4},
		{States: 12, Symbols: 3, Density: 0.4, AcceptRatio: 0.3},
		{States: 20, Symbols: 2, Density: 0.3, AcceptRatio: 0.2},
	}
	for trial := 0; trial < 150; trial++ {
		cfg := shapes[trial%len(shapes)]
		ab := genbase.Letters(cfg.Symbols)
		a := genbase.NFA(rng, cfg, ab)
		b := genbase.NFA(rng, cfg, ab)

		okRef, wRef, _ := nfa.IncludedCtx(nil, a, b)
		ok0, w0, err := nfa.IncludedAntichainCap(nil, a, b, unseeded)
		if err != nil {
			t.Fatal(err)
		}
		okS, wS, err := nfa.IncludedAntichainCap(nil, a, b, seeded)
		if err != nil {
			t.Fatal(err)
		}
		if ok0 != okRef || okS != okRef {
			t.Fatalf("trial %d: inclusion verdicts diverge: subset=%v cap0=%v seeded=%v", trial, okRef, ok0, okS)
		}
		if !okRef {
			if len(w0) != len(wRef) || len(wS) != len(wRef) {
				t.Fatalf("trial %d: counterexample lengths diverge: subset=%d cap0=%d seeded=%d", trial, len(wRef), len(w0), len(wS))
			}
			if !a.Accepts(w0) || b.Accepts(w0) {
				t.Fatalf("trial %d: cap-0 counterexample is not genuine", trial)
			}
		}

		// Universality: Σ* as the left operand.
		star := nfa.SigmaStar(ab)
		uRef, uwRef, _ := nfa.IncludedCtx(nil, star, a)
		u0, uw0, err := nfa.IncludedAntichainCap(nil, star, a, unseeded)
		if err != nil {
			t.Fatal(err)
		}
		if u0 != uRef {
			t.Fatalf("trial %d: Σ* inclusion verdicts diverge: subset=%v cap0=%v", trial, uRef, u0)
		}
		if !uRef && len(uw0) != len(uwRef) {
			t.Fatalf("trial %d: Σ* inclusion counterexample lengths diverge: subset=%d cap0=%d", trial, len(uwRef), len(uw0))
		}
	}
}
