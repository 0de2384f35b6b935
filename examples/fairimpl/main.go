// Fairimpl: the Section 5 example. ◇(a ∧ ○a) — "eventually two a's in a
// row" — is a relative liveness property of {a,b}^ω, yet imposing
// strong fairness on the minimal one-state automaton does not make it
// true: fairness alone cannot remember that the previous action was an
// a. Theorem 5.1 adds exactly the missing state information: a reduced
// Büchi automaton for L_ω ∩ P with the acceptance dropped accepts the
// same behaviors, and all its strongly fair runs satisfy the property.
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
	sys, err := relive.ParseSystemString(`
init q
q a q
q b q
`)
	if err != nil {
		return err
	}
	prop := relive.PropertyFromLTL(relive.MustParseLTL("F (a & X a)"), nil) // ◇(a ∧ ○a)
	ctx := context.Background()
	checker := relive.With()

	rl, err := checker.CheckRelativeLiveness(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("◇(a ∧ ○a) relative liveness of {a,b}^ω: %v\n", rl.Holds)

	ok, bad, err := checker.AllFairRunsSatisfy(ctx, sys, prop, relive.FairnessStrong)
	if err != nil {
		return err
	}
	fmt.Printf("strong fairness on the minimal automaton suffices: %v\n", ok)
	if bad != nil {
		fmt.Printf("  strongly fair violating run: %s\n", bad.Word().String(sys.Alphabet()))
	}

	fi, err := checker.SynthesizeFairImplementation(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("\nTheorem 5.1 implementation: %d states (was %d)\n",
		fi.System.NumStates(), sys.NumStates())
	same, _, err := fi.SameBehaviors(sys)
	if err != nil {
		return err
	}
	fmt.Printf("accepts exactly {a,b}^ω: %v\n", same)
	implOK, _, err := checker.AllFairRunsSatisfy(ctx, fi.System, prop, relive.FairnessStrong)
	if err != nil {
		return err
	}
	fmt.Printf("all strongly fair runs satisfy ◇(a ∧ ○a): %v\n", implOK)

	// Simulate the implementation under a strongly fair scheduler and
	// watch the pattern appear.
	sched, err := relive.NewFairScheduler(fi.System)
	if err != nil {
		return err
	}
	trace := sched.Trace(20)
	fmt.Print("\nfair simulation of the implementation: ")
	prev := ""
	seenAt := -1
	for i, e := range trace {
		name := fi.System.Alphabet().Name(e.Sym)
		fmt.Print(name)
		if name == "a" && prev == "a" && seenAt < 0 {
			seenAt = i
		}
		prev = name
	}
	fmt.Println()
	if seenAt >= 0 {
		fmt.Printf("two consecutive a's first appear at step %d\n", seenAt)
	} else {
		fmt.Println("pattern not yet visible in 20 steps (longer traces will show it)")
	}
	return nil
}
