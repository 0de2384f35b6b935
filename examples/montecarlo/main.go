// Montecarlo: the paper's concluding outlook (Section 9) made
// executable. Relative liveness properties "informally say: almost all
// computations satisfy the property". Under a uniform random scheduler
// a finite-state system almost surely falls into a bottom strongly
// connected component and sweeps it fairly, so:
//
//   - a relative liveness property holds with probability 1 even though
//     adversarial schedules violate it (the correct server), and
//   - a property that is not relative liveness fails with probability 1
//     once the unrecoverable region absorbs the run (the broken server).
//
// The example runs the first-class statistical engine
// (Checker.CheckStatistical, backed by internal/mc): parallel seeded
// random walks, streaming bottom-SCC lasso detection, and a
// Clopper–Pearson confidence interval on the satisfaction probability —
// compared against the exact relative-liveness verdicts.
package main

import (
	"context"
	"fmt"
	"log"

	"relive"
	"relive/internal/paper"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	correct, err := paper.Fig2System()
	if err != nil {
		return err
	}
	broken := paper.Fig3System()
	prop := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil)
	ctx := context.Background()

	checker := relive.With(
		relive.WithSeed(42),
		relive.WithSampleBudget(300, 200),
		relive.WithConfidence(0.99),
	)
	for _, tc := range []struct {
		name string
		sys  *relive.System
	}{
		{"correct server (Figure 2)", correct},
		{"broken server (Figure 3)", broken},
	} {
		rl, err := checker.CheckRelativeLiveness(ctx, tc.sys, prop)
		if err != nil {
			return err
		}
		rep, err := checker.CheckStatistical(ctx, tc.sys, prop)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", tc.name)
		fmt.Printf("  relative liveness verdict:       %v\n", rl.Holds)
		fmt.Printf("  statistical verdict:             %s  (%d/%d settled samples hit)\n",
			rep.Verdict, rep.Hits, rep.Settled)
		fmt.Printf("  P(□◇result) estimate:            %.3f in [%.3f, %.3f] at %.0f%% confidence\n",
			rep.Estimate, rep.CILow, rep.CIHigh, rep.Confidence*100)
		if len(rep.CounterexampleLoop) > 0 {
			fmt.Printf("  sampled counterexample loop:     %v\n", rep.CounterexampleLoop)
		}
		fmt.Println()
	}
	fmt.Println("Relative liveness — an exact, qualitative check — predicts the")
	fmt.Println("probability-1 behavior of the randomized system, the connection")
	fmt.Println("the paper poses as future work in its conclusion. The statistical")
	fmt.Println("verdict is CI-bounded, never exact; only its counterexamples are.")
	return nil
}
