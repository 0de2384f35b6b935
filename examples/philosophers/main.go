// Philosophers: dining philosophers as a Petri net, analyzed with the
// paper's machinery. Each philosopher picks up both forks atomically
// (eat_i) and puts them back (done_i) — a safe net whose reachability
// graph is built exactly like the paper's Figure 1 → Figure 2 step.
//
// "Philosopher 0 eats infinitely often" (□◇eat0) fails outright — the
// neighbors can conspire to starve her — but it IS a relative liveness
// property: a fair scheduler feeds everyone. The example also abstracts
// the ring down to philosopher 0's actions alone and shows the hiding
// homomorphism is simple, so the abstract verdict certifies the
// concrete ring (Theorem 8.2) — on a state space that does not grow
// with the number of philosophers.
package main

import (
	"context"
	"fmt"
	"log"

	"relive"
)

const philosophers = 4

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildRing(n int) (*relive.System, error) {
	net := relive.NewNet()
	for i := 0; i < n; i++ {
		net.AddPlace(fmt.Sprintf("fork%d", i), 1)
	}
	for i := 0; i < n; i++ {
		left := fmt.Sprintf("fork%d", i)
		right := fmt.Sprintf("fork%d", (i+1)%n)
		eating := fmt.Sprintf("eating%d", i)
		net.AddTransition(fmt.Sprintf("eat%d", i),
			map[string]int{left: 1, right: 1},
			map[string]int{eating: 1})
		net.AddTransition(fmt.Sprintf("done%d", i),
			map[string]int{eating: 1},
			map[string]int{left: 1, right: 1})
	}
	return net.ReachabilityGraph(4096)
}

func run() error {
	sys, err := buildRing(philosophers)
	if err != nil {
		return err
	}
	fmt.Printf("ring of %d philosophers: %d reachable markings\n",
		philosophers, sys.NumStates())

	eta := relive.MustParseLTL("G F eat0")
	prop := relive.PropertyFromLTL(eta, nil)
	ctx := context.Background()
	checker := relive.With()
	sat, err := checker.CheckSatisfies(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("□◇eat0 satisfied outright:       %v\n", sat.Holds)
	if !sat.Holds {
		fmt.Printf("  starvation schedule:           %s\n",
			sat.Counterexample.String(sys.Alphabet()))
	}
	rl, err := checker.CheckRelativeLiveness(ctx, sys, prop)
	if err != nil {
		return err
	}
	fmt.Printf("□◇eat0 relative liveness:        %v (a fair scheduler feeds her)\n\n", rl.Holds)

	// Abstract to philosopher 0's visible actions and verify there.
	h := relive.ObserveActions(sys.Alphabet(), "eat0", "done0")
	report, err := checker.VerifyViaAbstraction(ctx, sys, h, eta)
	if err != nil {
		return err
	}
	fmt.Printf("abstract system states:          %d (concrete: %d)\n",
		report.Abstract.NumStates(), sys.NumStates())
	fmt.Printf("hiding homomorphism simple:      %v\n", report.Simple)
	fmt.Printf("abstract □◇eat0 verdict:         %v\n", report.AbstractHolds)
	fmt.Printf("conclusion:                      %s\n\n", report.Conclusion)

	// Simulate fairly and count meals.
	sched, err := relive.NewFairScheduler(sys)
	if err != nil {
		return err
	}
	meals := make([]int, philosophers)
	for _, e := range sched.Trace(400) {
		name := sys.Alphabet().Name(e.Sym)
		var who int
		if n, _ := fmt.Sscanf(name, "eat%d", &who); n == 1 {
			meals[who]++
		}
	}
	fmt.Printf("meals under the fair scheduler over 400 steps: %v\n", meals)
	return nil
}
