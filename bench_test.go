// Benchmarks regenerating every figure and claim of the paper (one per
// experiment row in DESIGN.md §4 / EXPERIMENTS.md), plus ablation
// benchmarks comparing the independent decision routes the library
// implements. Run with:
//
//	go test -bench=. -benchmem
package relive_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relive"
	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/exp"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/paper"
	"relive/internal/telecom"
	"relive/internal/ts"
)

// --- E1: Figure 1 → Figure 2 ---

func BenchmarkFig1ReachabilityGraph(b *testing.B) {
	net := paper.Fig1Net()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.ReachabilityGraph(64); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Figure 2, relative liveness of □◇result ---

func BenchmarkFig2RelativeLiveness(b *testing.B) {
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil || !res.Holds {
			b.Fatalf("unexpected verdict %v, %v", res.Holds, err)
		}
	}
}

// --- E3: Figure 3, counterexample extraction ---

func BenchmarkFig3NotRelativeLiveness(b *testing.B) {
	sys := paper.Fig3System()
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil || res.Holds {
			b.Fatalf("unexpected verdict %v, %v", res.Holds, err)
		}
	}
}

// --- E4: Figure 4, abstract check ---

func BenchmarkFig4AbstractCheck(b *testing.B) {
	sys, err := paper.Fig4System()
	if err != nil {
		b.Fatal(err)
	}
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil || !res.Holds {
			b.Fatalf("unexpected verdict %v, %v", res.Holds, err)
		}
	}
}

// --- E5: simplicity decision on Figures 2 and 3 ---

func BenchmarkSimplicityCheck(b *testing.B) {
	fig2, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	fig3 := paper.Fig3System()
	for _, tc := range []struct {
		name string
		sys  *ts.System
		want bool
	}{
		{"Fig2-simple", fig2, true},
		{"Fig3-nonsimple", fig3, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			a, err := tc.sys.NFA()
			if err != nil {
				b.Fatal(err)
			}
			h := paper.AbstractionHom(tc.sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := h.IsSimple(a)
				if err != nil || res.Simple != tc.want {
					b.Fatalf("unexpected verdict %v, %v", res.Simple, err)
				}
			}
		})
	}
}

// --- E6: Figure 5, the R̄ transformation ---

func BenchmarkRbarTransform(b *testing.B) {
	eta := paper.PropertyInfResults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ltl.Rbar(eta); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Theorem 5.1 synthesis on the Section 5 example ---

func BenchmarkFairImplementation(b *testing.B) {
	sys := paper.Section5System()
	p := core.FromFormula(paper.Section5Property(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi, err := core.SynthesizeFairImplementation(context.Background(), sys, p)
		if err != nil {
			b.Fatal(err)
		}
		ok, _, err := core.AllFairRunsSatisfy(context.Background(), fi.System, p, fairness.Strong)
		if err != nil || !ok {
			b.Fatalf("implementation check failed: %v, %v", ok, err)
		}
	}
}

// --- E8: Theorem 4.5 stand-in, decision-procedure scaling ---

func BenchmarkRelLivenessScaling(b *testing.B) {
	ab := gen.Letters(2)
	p := core.FromFormula(ltl.MustParse("G F a"), nil)
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			sys := benchSystem(rng, ab, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRelSafetyScaling(b *testing.B) {
	ab := gen.Letters(2)
	p := core.FromFormula(ltl.MustParse("G F a"), nil)
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			sys := benchSystem(rng, ab, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFormulaSizeScaling(b *testing.B) {
	ab := gen.Letters(2)
	rng := rand.New(rand.NewSource(8))
	sys := benchSystem(rng, ab, 8)
	for _, d := range []int{1, 2, 3, 4} {
		f := nestedUntilFormula(d)
		p := core.FromFormula(f, nil)
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: Theorem 4.7 over a random corpus ---

func BenchmarkConjunctionTheorem(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	ab := gen.Letters(2)
	sys := benchSystem(rng, ab, 6)
	p := core.FromFormula(ltl.MustParse("G (a -> F b)"), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			b.Fatal(err)
		}
		conj, err := core.SatisfiesViaConjunction(sys, p)
		if err != nil {
			b.Fatal(err)
		}
		if direct.Holds != conj {
			b.Fatal("Theorem 4.7 violated")
		}
	}
}

// --- E10: machine closure route ---

func BenchmarkMachineClosure(b *testing.B) {
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RelativeLivenessViaMachineClosure(sys, p)
		if err != nil || !res.Holds {
			b.Fatalf("unexpected verdict %v, %v", res.Holds, err)
		}
	}
}

// --- E11: compositional abstraction ---

func BenchmarkCompositionalAbstraction(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			farm, err := exp.WorkerFarm(n)
			if err != nil {
				b.Fatal(err)
			}
			h := relive.ObserveActions(farm.Alphabet(), "req0", "res0")
			eta := ltl.MustParse("G (req0 -> F res0)")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := core.VerifyViaAbstraction(context.Background(), farm, h, eta)
				if err != nil || report.Conclusion != core.ConcreteHolds {
					b.Fatalf("unexpected outcome: %v, %v", report.Conclusion, err)
				}
			}
		})
	}
}

// --- E12: feature-interaction case study ---

func BenchmarkFeatureInteraction(b *testing.B) {
	for _, tc := range []struct {
		name string
		sys  *ts.System
		want core.Conclusion
	}{
		{"well-integrated", telecom.WellIntegrated(), core.ConcreteHolds},
		{"misintegrated", telecom.Misintegrated(), core.Inconclusive},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eta := telecom.HandledProperty()
			h := telecom.Abstraction(tc.sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := core.VerifyViaAbstraction(context.Background(), tc.sys, h, eta)
				if err != nil || report.Conclusion != tc.want {
					b.Fatalf("unexpected outcome: %v, %v", report.Conclusion, err)
				}
			}
		})
	}
}

// --- Ablation: the four relative-liveness decision routes ---

func BenchmarkRLAblation(b *testing.B) {
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	routes := []struct {
		name string
		run  func() (bool, error)
	}{
		{"lemma4.3", func() (bool, error) {
			r, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
			return r.Holds, err
		}},
		{"definition4.1", func() (bool, error) {
			r, err := core.RelativeLivenessDirect(sys, p)
			return r.Holds, err
		}},
		{"machine-closure", func() (bool, error) {
			r, err := core.RelativeLivenessViaMachineClosure(sys, p)
			return r.Holds, err
		}},
		{"cantor-density", func() (bool, error) {
			r, err := core.RelativeLivenessTopological(sys, p)
			return r.Holds, err
		}},
	}
	for _, route := range routes {
		b.Run(route.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				holds, err := route.run()
				if err != nil || !holds {
					b.Fatalf("unexpected verdict %v, %v", holds, err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// rlperfMenu is rlperf's property menu (bench/rlperf/workload.go), the
// formulas every exact benchmark request checks over {a, b, c}.
var rlperfMenu = []string{
	"G F a", "G (a -> F b)", "F G c", "G F a & G F b",
	"G (b -> X F c)", "(G F a) -> (G F b)", "G (a -> (b U c))", "F G (a | b)",
}

// BenchmarkLTLTranslation times ltl.TranslateBuchi on three formulas
// over two letters, and on each rlperf menu formula (menu/P1..P8) and
// its negation (menu/notP1..notP8) over {a, b, c}: the 16 translations
// the service makes for exact requests.
func BenchmarkLTLTranslation(b *testing.B) {
	translate := func(name string, f *ltl.Formula, lab *ltl.Labeling) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ltl.TranslateBuchi(nil, f, lab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	lab := ltl.Canonical(gen.Letters(2))
	for _, tc := range []struct {
		name    string
		formula string
	}{
		{"GFa", "G F a"},
		{"response", "G (a -> F b)"},
		{"nested", "G ((a U b) U (F a))"},
	} {
		translate(tc.name, ltl.MustParse(tc.formula), lab)
	}
	lab = ltl.Canonical(gen.Letters(3))
	for i, text := range rlperfMenu {
		f := ltl.MustParse(text)
		translate(fmt.Sprintf("menu/P%d", i+1), f, lab)
		translate(fmt.Sprintf("menu/notP%d", i+1), ltl.Not(f), lab)
	}
}

func BenchmarkExperimentHarness(b *testing.B) {
	// The full rlbench run, minus the slow scaling sweep.
	quick := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7"}
	for i := 0; i < b.N; i++ {
		for _, e := range exp.All() {
			for _, id := range quick {
				if e.ID != id {
					continue
				}
				r, err := e.Run()
				if err != nil || !r.Passed() {
					b.Fatalf("%s failed: %v", e.ID, err)
				}
			}
		}
	}
}

// --- helpers ---

func benchSystem(rng *rand.Rand, ab *alphabet.Alphabet, n int) *ts.System {
	s := ts.New(ab)
	for i := 0; i < n; i++ {
		s.AddState(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.45 {
					from, _ := s.LookupState(fmt.Sprintf("s%d", i))
					to, _ := s.LookupState(fmt.Sprintf("s%d", rng.Intn(n)))
					s.AddTransition(from, sym, to)
				}
			}
		}
	}
	init, _ := s.LookupState("s0")
	s.SetInitial(init)
	return s
}

func nestedUntilFormula(depth int) *ltl.Formula {
	f := ltl.Atom("a")
	for i := 0; i < depth; i++ {
		atom := "b"
		if i%2 == 1 {
			atom = "a"
		}
		f = ltl.Until(f, ltl.Eventually(ltl.Atom(atom)))
	}
	return ltl.Globally(f)
}
