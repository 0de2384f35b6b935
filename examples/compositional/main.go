// Compositional: the Section 9 motivation. For a farm of independent
// workers the concrete state space grows as 3^n, but the abstraction
// observing one worker is computable component-wise — abstract the one
// observed worker, ignore the hidden ones — and the relative liveness
// check runs on a constant-size abstract system. The simplicity of the
// hiding homomorphism (checked, not assumed) is what makes the abstract
// verdict transfer (Theorem 8.2).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"relive"
)

func main() {
	withPortfolio := flag.Bool("parallel", false,
		"also check every worker's response property as a portfolio on a GOMAXPROCS worker pool")
	flag.Parse()
	if err := run(*withPortfolio); err != nil {
		log.Fatal(err)
	}
}

func worker(i int) (*relive.System, error) {
	return relive.ParseSystemString(fmt.Sprintf(`
init idle%[1]d
idle%[1]d req%[1]d busy%[1]d
busy%[1]d work%[1]d done%[1]d
done%[1]d res%[1]d idle%[1]d
`, i))
}

func run(withPortfolio bool) error {
	fmt.Println("n  concrete  abstract  simple  abstract-verdict  conclusion            time")
	ctx := context.Background()
	checker := relive.With()
	for n := 1; n <= 5; n++ {
		farm, err := worker(0)
		if err != nil {
			return err
		}
		for i := 1; i < n; i++ {
			w, err := worker(i)
			if err != nil {
				return err
			}
			if farm, err = relive.ProductSystem(farm, w); err != nil {
				return err
			}
		}
		h := relive.ObserveActions(farm.Alphabet(), "req0", "res0")
		eta := relive.MustParseLTL("G (req0 -> F res0)")
		start := time.Now()
		report, err := checker.VerifyViaAbstraction(ctx, farm, h, eta)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("%d  %8d  %8d  %-6v  %-16v  %-20s  %v\n",
			n, farm.NumStates(), report.Abstract.NumStates(),
			report.Simple, report.AbstractHolds, report.Conclusion, elapsed.Round(time.Microsecond))

		if withPortfolio {
			// Check every worker's own response property against the
			// concrete farm as one portfolio batch: the pool shares the
			// trimmed farm and its behavior automaton across all n
			// properties.
			var props []relive.Property
			for i := 0; i < n; i++ {
				f := relive.MustParseLTL(fmt.Sprintf("G (req%d -> F res%d)", i, i))
				props = append(props, relive.PropertyFromLTL(f, nil))
			}
			pstart := time.Now()
			reports, err := checker.CheckPropertyPortfolio(ctx, farm, props)
			if err != nil {
				return err
			}
			holds := 0
			for _, r := range reports {
				if r.RelativeLiveness {
					holds++
				}
			}
			fmt.Printf("   portfolio: %d/%d per-worker response properties are relative liveness properties (%d workers, %v)\n",
				holds, n, runtime.GOMAXPROCS(0), time.Since(pstart).Round(time.Microsecond))
		}
	}
	fmt.Println()
	fmt.Println("The abstract system stays constant-size while the concrete product")
	fmt.Println("grows as 3^n; the conclusion for the concrete system is licensed by")
	fmt.Println("Theorem 8.2 because the hiding homomorphism is simple.")
	return nil
}
