// Featureinteraction: an intelligent-network case study in the spirit
// of the paper's reference [6]. Two telephone features — call
// forwarding on busy and voice mail on busy — compete for the same
// trigger. With a sane arbitration the service guarantee "every call is
// eventually handled" is a relative liveness property (a fair switch
// delivers it); with a broken arbitration a forwarded call can bounce
// between two busy parties forever, the guarantee is not even a
// relative liveness property, and — crucially — the abstraction that
// hides internal signalling cannot be trusted, because the hiding
// homomorphism stops being simple.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"

	"relive"
)

const wellIntegrated = `
init idle
idle call ringing
ringing answer talking
talking hangup idle
ringing busy contended
contended forward diverted
contended voicemail recording
diverted fwdanswer talking
diverted bounce contended
recording record idle
`

const misintegrated = `
init idle
idle call ringing
ringing answer talking
talking hangup idle
ringing busy contended
contended forward diverted
contended voicemail recording
diverted fwdanswer talking
diverted bounce fwdonly
fwdonly forward fwdloop
fwdloop bounce fwdonly
recording record idle
`

func main() {
	withPortfolio := flag.Bool("parallel", false,
		"also check the per-variant property portfolio on a GOMAXPROCS worker pool")
	flag.Parse()
	if err := run(*withPortfolio); err != nil {
		log.Fatal(err)
	}
}

func run(withPortfolio bool) error {
	eta := relive.MustParseLTL("G (call -> F (answer | fwdanswer | record))")
	ctx := context.Background()
	checker := relive.With()
	for _, variant := range []struct {
		name string
		text string
	}{
		{"well-integrated switch", wellIntegrated},
		{"misintegrated switch", misintegrated},
	} {
		sys, err := relive.ParseSystemString(variant.text)
		if err != nil {
			return err
		}
		h := relive.ObserveActions(sys.Alphabet(), "call", "answer", "fwdanswer", "record")
		report, err := checker.VerifyViaAbstraction(ctx, sys, h, eta)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d states):\n", variant.name, sys.NumStates())
		fmt.Printf("  abstract \"every call handled\" verdict: %v\n", report.AbstractHolds)
		fmt.Printf("  hiding homomorphism simple:            %v\n", report.Simple)
		fmt.Printf("  conclusion:                            %s\n", report.Conclusion)

		// Ground truth at the concrete level.
		p, err := relive.ConcreteProperty(h, eta)
		if err != nil {
			return err
		}
		direct, err := checker.CheckRelativeLiveness(ctx, sys, p)
		if err != nil {
			return err
		}
		fmt.Printf("  concrete ground truth:                 %v", direct.Holds)
		if !direct.Holds {
			fmt.Printf("  (stuck after %s)", direct.BadPrefix.String(sys.Alphabet()))
		}
		fmt.Println()

		if withPortfolio {
			// Check a portfolio of service guarantees in one batch: the
			// worker pool shares the trimmed system and its behavior
			// automaton across all properties, and each property's three
			// verdicts come back exactly as a serial CheckAll would
			// report them.
			portfolio := []struct {
				name    string
				formula string
			}{
				{"every call handled", ""}, // the eta property, set below
				{"contention resolved", "G (busy -> F (forward | voicemail))"},
				{"forwarded calls answered", "G (forward -> F fwdanswer)"},
			}
			props := []relive.Property{p}
			for _, entry := range portfolio[1:] {
				props = append(props, relive.PropertyFromLTL(relive.MustParseLTL(entry.formula), nil))
			}
			reports, err := checker.CheckPropertyPortfolio(ctx, sys, props)
			if err != nil {
				return err
			}
			fmt.Printf("  portfolio (%d properties, %d workers):\n", len(props), runtime.GOMAXPROCS(0))
			for i, r := range reports {
				fmt.Printf("    %-26s satisfied=%-5v rel-liveness=%-5v rel-safety=%v\n",
					portfolio[i].name, r.Satisfied, r.RelativeLiveness, r.RelativeSafety)
			}
		}
		fmt.Println()
	}
	fmt.Println("The misintegrated switch abstracts to the same observable behavior,")
	fmt.Println("but the simplicity check (Definition 6.3) flags the abstraction as")
	fmt.Println("unreliable — exactly the paper's Figure 2 vs Figure 3 phenomenon.")
	return nil
}
