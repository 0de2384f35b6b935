package core

import (
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/graph"
	"relive/internal/ts"
)

// This file implements the ∀□∃◇ check of the branching-time result the
// paper relates itself to ([18, 19]: a preservation theorem for the
// ∀□∃◇-fragment of CTL*): AG EF ⟨a⟩ holds when from every reachable
// state of the (trimmed) system some continuation eventually performs
// one of the target actions. On deterministic systems this coincides
// with □◇a being a relative liveness property, a correspondence the
// test suite checks; on nondeterministic systems AG EF is the
// per-state (stronger) variant, while relative liveness quantifies per
// prefix over the best matching run.

// AGEFResult reports a ∀□∃◇ verdict; when it fails, BadState names a
// reachable state from which no target action is reachable.
type AGEFResult struct {
	Holds    bool
	BadState string
}

// ForAllGloballyExistsEventually decides AG EF ⟨one of actions⟩ on the
// trimmed system.
func ForAllGloballyExistsEventually(sys *ts.System, actions ...string) (AGEFResult, error) {
	if len(actions) == 0 {
		return AGEFResult{}, fmt.Errorf("agef: no target actions")
	}
	trimmed, err := sys.Trim()
	if err != nil {
		// No infinite behavior: AG over an empty reachable live part
		// holds vacuously.
		return AGEFResult{Holds: true}, nil
	}
	targets := map[alphabet.Symbol]bool{}
	for _, a := range actions {
		sym, ok := trimmed.Alphabet().Lookup(a)
		if !ok {
			// The action cannot occur at all; only vacuously reachable if
			// there are no states, which Trim excluded.
			return AGEFResult{Holds: false, BadState: trimmed.StateName(trimmed.Initial())}, nil
		}
		targets[sym] = true
	}
	g, syms := trimmed.CSR()
	n := g.NumVertices()
	canDo := make([]bool, n) // state has an outgoing target edge
	for v := 0; v < n; v++ {
		for id := g.Off[v]; id < g.Off[v+1]; id++ {
			canDo[v] = canDo[v] || targets[syms[id]]
		}
	}
	reach := graph.ReachableCSR(g, []int{int(trimmed.Initial())})
	canReach := graph.CoReachableCSR(g, canDo)
	for v := 0; v < n; v++ {
		if reach[v] && !canReach[v] {
			return AGEFResult{Holds: false, BadState: trimmed.StateName(ts.State(v))}, nil
		}
	}
	return AGEFResult{Holds: true}, nil
}
