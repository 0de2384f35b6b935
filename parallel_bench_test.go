// Benchmarks for the parallel paths the library keeps, each beside its
// serial twin so `scripts/benchcmp` shows the parallel/serial ratio
// directly: the property portfolio on a worker pool, on the paper's
// Fig 2 and on a generated 96-state system with eight properties. The
// sampler's walker scaling is BenchmarkStatisticalWorkers
// (mc_bench_test.go). CheckAll, reachability and the synchronous
// product have only serial paths; their benchmarks stay as baselines.
// BENCH_07.json records the two-core measurements behind these choices.
package relive_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"relive"
	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/paper"
	"relive/internal/petri"
	"relive/internal/ts"
)

func checkAllOperands(b *testing.B) (*ts.System, core.Property) {
	b.Helper()
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	return sys, core.FromFormula(paper.PropertyInfResults(), nil)
}

func BenchmarkCheckAllSerial(b *testing.B) {
	sys, p := checkAllOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckAll(context.Background(), core.NewPipelineCells(sys, p)); err != nil {
			b.Fatal(err)
		}
	}
}

func portfolioOperands(b *testing.B) (*ts.System, []core.Property) {
	b.Helper()
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	props := []core.Property{
		core.FromFormula(paper.PropertyInfResults(), nil),
		core.FromFormula(relive.MustParseLTL("G F request"), nil),
		core.FromFormula(relive.MustParseLTL("G (request -> F (result | reject))"), nil),
		core.FromFormula(relive.MustParseLTL("F G reject"), nil),
	}
	return sys, props
}

func BenchmarkPortfolioSerial(b *testing.B) {
	sys, props := portfolioOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckPortfolio(context.Background(), sys, props, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPortfolioParallel(b *testing.B) {
	sys, props := portfolioOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckPortfolio(context.Background(), sys, props, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// portfolioGenOperands is a generated 96-state system over a, b, c
// with eight properties: the system filter, canonical-text round trip
// and property menu of the rlperf exact workloads, at cold-exact's
// largest size. The seeds are those of the BENCH_07 sweep.
func portfolioGenOperands(b *testing.B) (*ts.System, []core.Property) {
	b.Helper()
	ab := gen.Letters(3)
	var sys *ts.System
	for seed := int64(2000); sys == nil; seed++ {
		cand := gen.System(rand.New(rand.NewSource(seed)), ab, 96, 0.3)
		used := map[alphabet.Symbol]bool{}
		for _, e := range cand.Edges() {
			used[e.Sym] = true
		}
		if _, err := cand.Trim(); err != nil || len(used) < ab.Size() {
			continue
		}
		var err error
		if sys, err = ts.ParseString(cand.FormatString()); err != nil {
			b.Fatal(err)
		}
	}
	var props []core.Property
	for _, f := range rlperfMenu {
		props = append(props, core.FromFormula(relive.MustParseLTL(f), nil))
	}
	return sys, props
}

func BenchmarkPortfolioGenSerial(b *testing.B) {
	sys, props := portfolioGenOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckPortfolio(context.Background(), sys, props, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolioGenParallel runs the pool at the width the Checker
// uses, runtime.GOMAXPROCS(0); run with -cpu 1,2 to see the speedup.
func BenchmarkPortfolioGenParallel(b *testing.B) {
	sys, props := portfolioGenOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckPortfolio(context.Background(), sys, props, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRing is a bounded token-ring net: its reachability graph holds
// every distribution of the tokens over four places.
func benchRing(tokens int) *petri.Net {
	n := petri.New()
	n.AddPlace("p0", tokens)
	n.AddPlace("p1", 0)
	n.AddPlace("p2", 0)
	n.AddPlace("p3", 0)
	move := func(name, from, to string) {
		n.AddTransition(name, map[string]int{from: 1}, map[string]int{to: 1})
	}
	move("t01", "p0", "p1")
	move("t12", "p1", "p2")
	move("t23", "p2", "p3")
	move("t30", "p3", "p0")
	move("t02", "p0", "p2")
	move("t13", "p1", "p3")
	return n
}

func BenchmarkReachabilitySerial(b *testing.B) {
	net := benchRing(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ReachabilityGraph(0); err != nil {
			b.Fatal(err)
		}
	}
}

func productOperand(b *testing.B, i int) *relive.System {
	b.Helper()
	sys, err := relive.ParseSystemString(fmt.Sprintf(`
init idle%[1]d
idle%[1]d req%[1]d busy%[1]d
busy%[1]d work%[1]d done%[1]d
done%[1]d res%[1]d idle%[1]d
`, i))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkProductSerial(b *testing.B) {
	x, y, z := productOperand(b, 0), productOperand(b, 1), productOperand(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xy, err := relive.ProductSystem(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relive.ProductSystem(xy, z); err != nil {
			b.Fatal(err)
		}
	}
}
