package relive_test

import (
	"context"
	"fmt"
	"log"

	"relive"
)

// Is □◇result a relative liveness property of a server that answers
// each request with a result or a rejection? It is not satisfied
// outright, since rejecting forever is a behavior, but every finite
// behavior extends to one with infinitely many results, so a fair
// implementation satisfies it (Theorem 5.1).
func ExampleChecker_CheckRelativeLiveness() {
	sys, err := relive.ParseSystemString(`
init idle
idle request busy
busy result idle
busy reject idle
`)
	if err != nil {
		log.Fatal(err)
	}
	prop := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil) // or "□◇result"
	ctx := context.Background()
	checker := relive.With()

	sat, err := checker.CheckSatisfies(ctx, sys, prop)
	if err != nil {
		log.Fatal(err)
	}
	rl, err := checker.CheckRelativeLiveness(ctx, sys, prop)
	if err != nil {
		log.Fatal(err)
	}
	fi, err := checker.SynthesizeFairImplementation(ctx, sys, prop)
	if err != nil {
		log.Fatal(err)
	}
	fair, _, err := checker.AllFairRunsSatisfy(ctx, fi.System, prop, relive.FairnessStrong)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("satisfied:", sat.Holds)
	fmt.Println("relative liveness:", rl.Holds)
	fmt.Println("strongly fair runs of the implementation satisfy it:", fair)
	// Output:
	// satisfied: false
	// relative liveness: true
	// strongly fair runs of the implementation satisfy it: true
}

// Verify □◇result on an abstraction that hides the server's internal
// accept/deny decision. The hiding homomorphism is simple, so the
// abstract verdict carries over to the concrete server (Corollary 8.4).
func ExampleChecker_VerifyViaAbstraction() {
	sys, err := relive.ParseSystemString(`
init idle
idle request deciding
deciding accept granted
deciding deny denied
granted result idle
denied reject idle
`)
	if err != nil {
		log.Fatal(err)
	}
	h := relive.ObserveActions(sys.Alphabet(), "request", "result", "reject")
	report, err := relive.With().VerifyViaAbstraction(context.Background(), sys, h, relive.MustParseLTL("G F result"))
	if err != nil {
		log.Fatal(err)
	}
	switch report.Conclusion {
	case relive.ConcreteHolds: // abstract check passed, h simple (Theorem 8.2)
	case relive.ConcreteFails: // abstract check failed (Theorem 8.3)
	case relive.Inconclusive: // h not simple: the Figure 3 trap
	}
	fmt.Println(report.Conclusion)
	// Output: concrete system verified (Theorem 8.2)
}
