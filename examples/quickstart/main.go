// Quickstart: decide whether a property is a relative liveness property
// of a small server — i.e. whether some fair implementation satisfies
// it — and contrast that with plain satisfaction.
package main

import (
	"context"
	"fmt"
	"log"

	"relive"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A server that answers each request with a result or a rejection.
	sys, err := relive.ParseSystemString(`
init idle
idle request busy
busy result idle
busy reject idle
`)
	if err != nil {
		return err
	}
	prop := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil) // □◇result
	ctx := context.Background()
	checker := relive.With()

	sat, err := checker.CheckSatisfies(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("□◇result satisfied outright: %v\n", sat.Holds)
	if !sat.Holds {
		fmt.Printf("  counterexample behavior:   %s\n",
			sat.Counterexample.String(sys.Alphabet()))
	}

	rl, err := checker.CheckRelativeLiveness(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("□◇result relative liveness:  %v\n", rl.Holds)
	if rl.Holds {
		fmt.Println("  → every finite behavior extends to one with infinitely many results;")
		fmt.Println("    a fair implementation will satisfy the property (Theorem 5.1).")
	}

	rs, err := checker.CheckRelativeSafety(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("□◇result relative safety:    %v\n", rs.Holds)
	fmt.Println("  (Theorem 4.7: satisfied ⟺ relative liveness ∧ relative safety)")
	return nil
}
