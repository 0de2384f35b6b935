// Benchmarks for the statistical relative-liveness engine (internal/mc
// via Checker.CheckStatistical): sampling cost against system size and
// budget, worker scaling, and the sampled-vs-exact crossover that
// motivates WithStatisticalFallback — on large products the exact
// Büchi pipeline pays for the whole state space while the sampler pays
// only for the walked fraction.
package relive_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"relive"
	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/mc"
	"relive/internal/ts"
)

// statBenchSystem renders an n-state transient part in front of a
// 3-state bottom ring. The transient states s0..s(n-1) form a ring with
// two chords each (actions a and b), in the shape of the e2e harness's
// big fixture, and each also leaves on c for the ring r0 → r1 → r2 → r0.
// A walk leaves the transient part within a few steps and covers the
// ring right after its prefix, so the sampled checks settle, while the
// exact check still pays for all n+3 states.
func statBenchSystem(n int) *ts.System {
	var b strings.Builder
	b.WriteString("init s0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "s%d a s%d\n", i, (i+1)%n)
		fmt.Fprintf(&b, "s%d b s%d\n", i, (2*i+1)%n)
		fmt.Fprintf(&b, "s%d c r0\n", i)
	}
	b.WriteString("r0 a r1\nr1 b r2\nr2 c r0\n")
	sys, err := ts.ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return sys
}

// BenchmarkStatisticalVsExact: the sampled check against the exact
// strong-fairness check on growing systems — the crossover the
// statistical fallback exploits. The sampling budget is fixed, so its
// cost grows only with the walk length while the exact check pays for
// the full product.
func BenchmarkStatisticalVsExact(b *testing.B) {
	phi, err := relive.ParseLTL("G F a")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{64, 256, 1024} {
		sys := statBenchSystem(n)
		p := core.FromFormula(phi, nil)
		b.Run(fmt.Sprintf("n=%d/sampled", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p,
					core.StatOptions{Seed: 1, Samples: 100, Steps: 128, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Verdict == core.StatVerdictFails || rep.Settled == 0 {
					b.Fatalf("verdict %v with %d settled", rep.Verdict, rep.Settled)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/exact", n), func(b *testing.B) {
			checker := relive.With()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				holds, _, err := checker.AllFairRunsSatisfy(context.Background(), sys, p, relive.FairnessStrong)
				if err != nil || !holds {
					b.Fatalf("verdict %v, %v", holds, err)
				}
			}
		})
	}
}

// BenchmarkStatisticalBudget: cost is linear in the sampling budget at
// a fixed system size.
func BenchmarkStatisticalBudget(b *testing.B) {
	sys := statBenchSystem(256)
	phi, err := relive.ParseLTL("G F a")
	if err != nil {
		b.Fatal(err)
	}
	p := core.FromFormula(phi, nil)
	for _, samples := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p,
					core.StatOptions{Seed: 1, Samples: samples, Steps: 128, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Settled == 0 {
					b.Fatal("no walk settled")
				}
			}
		})
	}
}

// BenchmarkStatisticalWorkers: worker scaling of one sampling sweep;
// the report is identical at every width, only the wall clock moves.
func BenchmarkStatisticalWorkers(b *testing.B) {
	sys := statBenchSystem(512)
	phi, err := relive.ParseLTL("G F a")
	if err != nil {
		b.Fatal(err)
	}
	p := core.FromFormula(phi, nil)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p,
					core.StatOptions{Seed: 1, Samples: 400, Steps: 256, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Settled == 0 {
					b.Fatal("no walk settled")
				}
			}
		})
	}
}

// BenchmarkMCRunRandomGraphs: the raw engine on random sparse systems —
// the sampler's cost profile without property evaluation (the eval is a
// trivial loop scan).
func BenchmarkMCRunRandomGraphs(b *testing.B) {
	ab := gen.Letters(3)
	var trimmed *ts.System
	for seed := int64(1); trimmed == nil; seed++ {
		if seed > 64 {
			b.Fatal("no generated system with infinite behavior in 64 seeds")
		}
		rng := rand.New(rand.NewSource(seed))
		sys := gen.System(rng, ab, 200, 0.25)
		if tr, err := sys.Trim(); err == nil {
			trimmed = tr
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(nil, trimmed, mc.Config{Seed: 1, Samples: 200, Steps: 128, Confidence: 0.99, Workers: 1},
			func() func(relive.Lasso) (bool, error) {
				return func(l relive.Lasso) (bool, error) { return len(l.Loop) > 0, nil }
			}); err != nil {
			b.Fatal(err)
		}
	}
}

// statGenFormulas is rlperf's property menu.
var statGenFormulas = []string{
	"G F a",
	"G (a -> F b)",
	"F G c",
	"G F a & G F b",
	"G (b -> X F c)",
	"(G F a) -> (G F b)",
	"G (a -> (b U c))",
	"F G (a | b)",
}

// BenchmarkStatisticalGen: one operation is the eight statistical checks
// of rlperf's property menu on one generated system (a, b, c, density
// 0.3, the first seed with a behavior) at the default budget on one
// walker, each on fresh cells as a distinct request would be, so every
// check pays its trim, its formula compilation and its sampling.
func BenchmarkStatisticalGen(b *testing.B) {
	ab := gen.Letters(3)
	props := make([]core.Property, len(statGenFormulas))
	for i, f := range statGenFormulas {
		phi, err := relive.ParseLTL(f)
		if err != nil {
			b.Fatal(err)
		}
		props[i] = core.FromFormula(phi, nil)
	}
	for _, n := range []int{128, 256, 512} {
		var sys *ts.System
		for seed := int64(1); sys == nil; seed++ {
			cand := gen.System(rand.New(rand.NewSource(seed)), ab, n, 0.3)
			if _, err := cand.Trim(); err == nil {
				sys = cand
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range props {
					if _, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p,
						core.StatOptions{Seed: 1, Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
