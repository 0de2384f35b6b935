package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/gen"
	"relive/internal/graph"
	"relive/internal/ltl"
	"relive/internal/paper"
	"relive/internal/ts"
)

func TestAGEFOnPaperFigures(t *testing.T) {
	fig2, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ForAllGloballyExistsEventually(fig2, paper.ActResult)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("AG EF result fails on Figure 2 at %s", res.BadState)
	}
	res, err = ForAllGloballyExistsEventually(paper.Fig3System(), paper.ActResult)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("AG EF result holds on Figure 3")
	}
	if res.BadState == "" {
		t.Error("missing bad state witness")
	}
}

func TestAGEFValidation(t *testing.T) {
	fig2, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForAllGloballyExistsEventually(fig2); err == nil {
		t.Error("no target actions accepted")
	}
	// Unknown action: not reachable anywhere.
	res, err := ForAllGloballyExistsEventually(fig2, "no-such-action")
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("AG EF of an impossible action holds")
	}
}

// TestQuickAGEFMatchesRLOnDeterministic: on deterministic systems,
// AG EF ⟨a⟩ coincides with □◇a being a relative liveness property.
func TestQuickAGEFMatchesRLOnDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	ab := gen.Letters(2)
	for trial := 0; trial < 60; trial++ {
		sys := randomDeterministicSystem(rng, ab, 1+rng.Intn(5))
		if _, err := sys.Trim(); err != nil {
			continue
		}
		agef, err := ForAllGloballyExistsEventually(sys, "a")
		if err != nil {
			t.Fatal(err)
		}
		rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, FromFormula(ltl.MustParse("G F a"), nil)))
		if err != nil {
			t.Fatal(err)
		}
		if agef.Holds != rl.Holds {
			t.Fatalf("trial %d: AGEF=%v but RL(□◇a)=%v on deterministic system\n%s",
				trial, agef.Holds, rl.Holds, sys.FormatString())
		}
	}
}

func randomDeterministicSystem(rng *rand.Rand, ab *alphabet.Alphabet, n int) *ts.System {
	s := ts.New(ab)
	for i := 0; i < n; i++ {
		s.AddState(fmt.Sprintf("d%d", i))
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			if rng.Float64() < 0.6 {
				from, _ := s.LookupState(fmt.Sprintf("d%d", i))
				to, _ := s.LookupState(fmt.Sprintf("d%d", rng.Intn(n)))
				s.AddTransition(from, sym, to) // one target per (state, symbol)
			}
		}
	}
	init, _ := s.LookupState("d0")
	s.SetInitial(init)
	return s
}

// The ∀□∃◇ check of the branching-time result the paper relates itself
// to ([18, 19]: a preservation theorem for the ∀□∃◇-fragment of CTL*)
// is the reference TestQuickAGEFMatchesRLOnDeterministic compares
// relative liveness with: AG EF ⟨a⟩ holds when from every reachable
// state of the (trimmed) system some continuation eventually performs
// one of the target actions. On deterministic systems this coincides
// with □◇a being a relative liveness property; on nondeterministic
// systems AG EF is the per-state (stronger) variant, while relative
// liveness quantifies per prefix over the best matching run.

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
	reach := graph.Reachable(g, []int{int(trimmed.Initial())})
	canReach := graph.CoReachable(g, canDo)
	for v := 0; v < n; v++ {
		if reach[v] && !canReach[v] {
			return AGEFResult{Holds: false, BadState: trimmed.StateName(ts.State(v))}, nil
		}
	}
	return AGEFResult{Holds: true}, nil
}
