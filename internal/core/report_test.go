package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"relive/internal/buchi"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/paper"
)

func TestCheckAllOnFig2(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	r, err := CheckAll(context.Background(), NewPipelineCells(sys, FromFormula(paper.PropertyInfResults(), nil)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Satisfied || !r.RelativeLiveness || r.RelativeSafety {
		t.Errorf("verdicts: %+v", r)
	}
	if r.States != 8 {
		t.Errorf("states = %d, want 8", r.States)
	}
	if len(r.CounterexampleLp) == 0 {
		t.Error("missing counterexample loop")
	}
	if len(r.ViolationLoop) == 0 {
		t.Error("missing relative-safety violation loop")
	}
	if len(r.BadPrefix) != 0 {
		t.Error("bad prefix present although relative liveness holds")
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"relativeLiveness":true`) {
		t.Errorf("JSON: %s", data)
	}
}

func TestCheckAllBadPrefixOnFig3(t *testing.T) {
	r, err := CheckAll(context.Background(), NewPipelineCells(paper.Fig3System(), FromFormula(paper.PropertyInfResults(), nil)))
	if err != nil {
		t.Fatal(err)
	}
	if r.RelativeLiveness {
		t.Fatal("RL should fail on Figure 3")
	}
	if len(r.BadPrefix) == 0 {
		t.Error("missing bad prefix")
	}
}

func TestPropertyAccessors(t *testing.T) {
	f := ltl.MustParse("G F a")
	p := FromFormula(f, nil)
	if p.Formula() != f {
		t.Error("Formula accessor lost the formula")
	}
	if p.String() != "□◇result" && !strings.Contains(p.String(), "◇") {
		t.Errorf("String = %q", p.String())
	}
	ab := gen.Letters(1)
	autoP := FromAutomaton(buchi.UniversalAutomaton(ab))
	if !strings.Contains(autoP.String(), "Büchi") {
		t.Errorf("automaton property String = %q", autoP.String())
	}
	if autoP.Formula() != nil {
		t.Error("automaton property reports a formula")
	}
	var empty Property
	if empty.String() != "<empty property>" {
		t.Errorf("empty property String = %q", empty.String())
	}
	if _, err := empty.Automaton(nil, ab); err == nil {
		t.Error("empty property produced an automaton")
	}
	if _, err := empty.NegationAutomaton(nil, ab); err == nil {
		t.Error("empty property produced a negation automaton")
	}
}

func TestConclusionString(t *testing.T) {
	for _, c := range []Conclusion{ConcreteHolds, ConcreteFails, Inconclusive, Conclusion(99)} {
		if c.String() == "" {
			t.Errorf("empty String for %d", int(c))
		}
	}
}
