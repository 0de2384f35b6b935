package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/gen"
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
