// Abstraction: the full Section 2 story of the paper. A server is
// modeled as a Petri net (Figure 1), its reachability graph is the
// behavior system (Figure 2), an abstracting homomorphism hides the
// internal actions (giving Figure 4), and the simplicity of the
// homomorphism (Definition 6.3) decides whether the abstract verdict
// transfers to the concrete system. The erroneous variant (Figure 3)
// abstracts to the same system but fails the simplicity check — the
// example that shows why simplicity cannot be dropped.
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
	concrete, err := buildServerNet()
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2 (reachability graph): %d states over %s\n",
		concrete.NumStates(), concrete.Alphabet())

	eta := relive.MustParseLTL("G F result")
	h := relive.ObserveActions(concrete.Alphabet(), "request", "result", "reject")
	ctx := context.Background()
	checker := relive.With()

	report, err := checker.VerifyViaAbstraction(ctx, concrete, h, eta)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 4 (abstraction):        %d states\n", report.Abstract.NumStates())
	fmt.Printf("h simple on the correct server: %v\n", report.Simple)
	fmt.Printf("abstract □◇result verdict:      %v\n", report.AbstractHolds)
	fmt.Printf("R̄(□◇result):                    %s\n", report.Transformed)
	fmt.Printf("conclusion:                     %s\n\n", report.Conclusion)

	// The erroneous server: the resource can never be freed again, and
	// rejections are possible even when it is free — same abstraction,
	// different truth.
	broken, err := relive.ParseSystemString(`
init F.idle
F.idle request F.waiting
F.waiting yes F.granted
F.waiting no F.denied
F.granted result F.idle
F.denied reject F.idle
F.idle lock L.idle
F.waiting lock L.waiting
F.granted lock L.granted
F.denied lock L.denied
L.idle request L.waiting
L.waiting no L.denied
L.granted result L.idle
L.denied reject L.idle
`)
	if err != nil {
		return err
	}
	hBroken := relive.ObserveActions(broken.Alphabet(), "request", "result", "reject")
	reportBroken, err := checker.VerifyViaAbstraction(ctx, broken, hBroken, eta)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 3 (erroneous server):    %d states\n", broken.NumStates())
	fmt.Printf("same abstract system:           %d states, abstract verdict %v\n",
		reportBroken.Abstract.NumStates(), reportBroken.AbstractHolds)
	fmt.Printf("h simple on the broken server:  %v (witness: %s)\n",
		reportBroken.Simple, reportBroken.SimplicityWitness.String(broken.Alphabet()))
	fmt.Printf("conclusion:                     %s\n", reportBroken.Conclusion)

	// Confirm the caution was warranted: the concrete check fails.
	concreteProp, err := relive.ConcreteProperty(hBroken, eta)
	if err != nil {
		return err
	}
	direct, err := checker.CheckRelativeLiveness(ctx, broken, concreteProp)
	if err != nil {
		return err
	}
	fmt.Printf("direct concrete check:          %v (prefix %s kills the property)\n",
		direct.Holds, direct.BadPrefix.String(broken.Alphabet()))
	return nil
}

// buildServerNet builds the Figure 1 Petri net and returns its
// reachability graph — the Figure 2 behavior system.
func buildServerNet() (*relive.System, error) {
	net := relive.NewNet()
	net.AddPlace("idle", 1)
	net.AddPlace("free", 1)
	net.AddTransition("request", map[string]int{"idle": 1}, map[string]int{"waiting": 1})
	net.AddTransition("yes", map[string]int{"waiting": 1, "free": 1}, map[string]int{"granted": 1, "free": 1})
	net.AddTransition("no", map[string]int{"waiting": 1, "locked": 1}, map[string]int{"denied": 1, "locked": 1})
	net.AddTransition("result", map[string]int{"granted": 1}, map[string]int{"idle": 1})
	net.AddTransition("reject", map[string]int{"denied": 1}, map[string]int{"idle": 1})
	net.AddTransition("lock", map[string]int{"free": 1}, map[string]int{"locked": 1})
	net.AddTransition("free", map[string]int{"locked": 1}, map[string]int{"free": 1})
	return net.ReachabilityGraph(64)
}
