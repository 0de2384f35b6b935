package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/graph"
	"relive/internal/oracle"
	"relive/internal/paper"
	"relive/internal/ts"
)

// TestSection5Example reproduces the Section 5 discussion end to end:
// ◇(a ∧ ○a) is a relative liveness property of {a,b}^ω; imposing strong
// fairness on the minimal (one-state) automaton does NOT make it hold;
// the Theorem 5.1 synthesis produces a system with the same behaviors on
// which every strongly fair run satisfies it.
func TestSection5Example(t *testing.T) {
	sys := paper.Section5System()
	p := FromFormula(paper.Section5Property(), nil)

	rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Fatal("◇(a ∧ ○a) is not a relative liveness property of {a,b}^ω")
	}

	// Minimal automaton + strong fairness: not sufficient.
	ok, violating, err := AllFairRunsSatisfy(context.Background(), sys, p, fairness.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("strong fairness on the minimal automaton already enforces ◇(a ∧ ○a); the paper says it does not")
	}
	if violating == nil {
		t.Fatal("no violating fair run returned")
	}
	if err := violating.Validate(sys); err != nil {
		t.Fatalf("violating run invalid: %v", err)
	}
	if !oracle.IsFair(sys, oracle.EdgeLasso(*violating), oracle.StronglyFair) {
		t.Error("violating run not strongly fair")
	}

	// Theorem 5.1 synthesis.
	fi, err := SynthesizeFairImplementation(context.Background(), sys, p)
	if err != nil {
		t.Fatal(err)
	}
	same, w, err := fi.SameBehaviors(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("implementation behaviors differ from {a,b}^ω, witness %s", w.String(sys.Alphabet()))
	}
	good, bad, err := AllFairRunsSatisfy(context.Background(), fi.System, p, fairness.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if !good {
		t.Fatalf("a strongly fair run of the synthesized implementation violates the property: %v", bad)
	}
	if !fi.BottomSCCsContainMarks() {
		t.Error("a reachable bottom SCC of the implementation misses the accepting marks")
	}
	// The synthesis must genuinely add state information here.
	if fi.System.NumStates() <= sys.NumStates() {
		t.Errorf("implementation has %d states, expected more than the %d of the minimal system",
			fi.System.NumStates(), sys.NumStates())
	}
}

// TestTheorem51OnFig2 runs the synthesis for the paper's main example:
// □◇result on the Figure 2 server.
func TestTheorem51OnFig2(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := FromFormula(paper.PropertyInfResults(), nil)
	fi, err := SynthesizeFairImplementation(context.Background(), sys, p)
	if err != nil {
		t.Fatal(err)
	}
	same, w, err := fi.SameBehaviors(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("behaviors changed by synthesis, witness %s", w.String(sys.Alphabet()))
	}
	good, bad, err := AllFairRunsSatisfy(context.Background(), fi.System, p, fairness.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if !good {
		t.Fatalf("fair run of implementation violates □◇result: %v", bad)
	}
	if !fi.BottomSCCsContainMarks() {
		t.Error("bottom SCC without marks in Fig 2 implementation")
	}
}

// TestTheorem51RejectsNonRelativeLiveness: the synthesis must refuse
// properties that are not relative liveness properties.
func TestTheorem51RejectsNonRelativeLiveness(t *testing.T) {
	sys := paper.Fig3System()
	p := FromFormula(paper.PropertyInfResults(), nil)
	if _, err := SynthesizeFairImplementation(context.Background(), sys, p); err == nil {
		t.Error("synthesis accepted a non-relative-liveness property")
	}
}

// TestQuickTheorem51Random: on random systems and random relative
// liveness properties, the synthesized implementation preserves
// behaviors and its strongly fair runs satisfy the property.
func TestQuickTheorem51Random(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ab := gen.Letters(2)
	atoms := ab.Names()
	synthesized := 0
	for trial := 0; trial < 80 && synthesized < 25; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), nil)
		rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		if !rl.Holds {
			continue
		}
		if _, err := sys.Trim(); err != nil {
			continue // no behaviors; nothing to synthesize
		}
		fi, err := SynthesizeFairImplementation(context.Background(), sys, p)
		if err != nil {
			t.Fatalf("trial %d: synthesis failed for a relative liveness property: %v", trial, err)
		}
		synthesized++
		same, w, err := fi.SameBehaviors(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("trial %d: behaviors differ, witness %s\nsystem:\n%s",
				trial, w.String(ab), sys.FormatString())
		}
		good, bad, err := AllFairRunsSatisfy(context.Background(), fi.System, p, fairness.Strong)
		if err != nil {
			t.Fatal(err)
		}
		if !good {
			t.Fatalf("trial %d: fair run violates the property %s: %v\nsystem:\n%s",
				trial, p, bad, sys.FormatString())
		}
		if !fi.BottomSCCsContainMarks() {
			t.Fatalf("trial %d: bottom SCC without marks", trial)
		}
	}
	if synthesized == 0 {
		t.Skip("no synthesizable samples")
	}
}

// BottomSCCsContainMarks is the structural argument from the proof of
// Theorem 5.1, checkable in linear time: in the reduced product, every
// reachable bottom SCC of the implementation contains a marked
// (originally accepting) state, so any run that is eventually confined
// to — and fairly exhausts — a bottom SCC hits marks infinitely often.
func (fi *FairImplementation) BottomSCCsContainMarks() bool {
	sys := fi.System
	g, _ := sys.CSR()
	for _, comp := range graph.BottomSCCs(g, []int{int(sys.Initial())}) {
		hasMark := false
		for _, v := range comp {
			if fi.Marked[ts.State(v)] {
				hasMark = true
				break
			}
		}
		if !hasMark {
			return false
		}
	}
	return true
}
