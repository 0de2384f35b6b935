package relive_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
// rank-based vs deterministic two-copy complementation, both of which
// the checks use. BenchmarkMinimizeAblation,
// BenchmarkIntersectionAblation and BenchmarkSimulationReductionAblation
// each time one construction (Moore minimization, a chain of binary
// Büchi intersections, emptiness of a raw product) under the
// sub-benchmark names earlier comparisons used, so scripts/benchcmp
// keeps comparing them.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/paper"
	"relive/internal/ts"
)

func BenchmarkMinimizeAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(201))
	ab := gen.Letters(2)
	dfas := make([]*nfa.DFA, 8)
	for i := range dfas {
		dfas[i] = gen.NFA(rng, gen.Config{States: 30, Symbols: 2, Density: 0.4, AcceptRatio: 0.3}, ab).Determinize()
	}
	b.Run("moore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dfas[i%len(dfas)].Minimize()
		}
	})
}

func BenchmarkIntersectionAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(202))
	ab := gen.Letters(2)
	autos := make([]*buchi.Buchi, 4)
	for i := range autos {
		autos[i] = randomBenchBuchi(rng, ab, 4)
	}
	b.Run("binary-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := autos[0]
			for _, a := range autos[1:] {
				acc, _ = buchi.IntersectCtx(nil, acc, a)
			}
			_ = acc
		}
	})
}

func BenchmarkSimulationReductionAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(203))
	ab := gen.Letters(2)
	autos := make([]*buchi.Buchi, 6)
	for i := range autos {
		autos[i] = randomBenchBuchi(rng, ab, 10)
	}
	b.Run("raw-emptiness", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := autos[i%len(autos)]
			p, _ := buchi.IntersectCtx(nil, a, a)
			p.IsEmpty()
		}
	})
}

func BenchmarkBisimulationQuotient(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			sys := benchSystem(rng, gen.Letters(2), n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.BisimulationQuotient(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStreettFairEmptiness(b *testing.B) {
	sys, err := benchPaperFig2()
	if err != nil {
		b.Fatal(err)
	}
	prop, _ := ltl.TranslateNegation(nil, ltl.MustParse("G F result"), ltl.Canonical(sys.Alphabet()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := core.AllFairRunsSatisfy(context.Background(), sys, core.FromFormula(ltl.MustParse("G F result"), nil), fairness.Strong)
		if err != nil || !ok {
			b.Fatalf("fairness check: %v %v", ok, err)
		}
	}
	_ = prop
}

func randomBenchBuchi(rng *rand.Rand, ab *alphabet.Alphabet, n int) *buchi.Buchi {
	b := buchi.New(ab)
	for i := 0; i < n; i++ {
		b.AddState(rng.Float64() < 0.4)
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.5 {
					b.AddTransition(buchi.State(i), sym, buchi.State(rng.Intn(n)))
				}
			}
		}
	}
	b.SetInitial(0)
	return b
}

func benchPaperFig2() (*ts.System, error) { return paper.Fig2System() }
