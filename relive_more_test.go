package relive_test

import (
	"context"
	"encoding/json"
	"testing"

	"relive"
)

func TestCheckAllReport(t *testing.T) {
	sys, err := relive.ParseSystemString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	report, err := relive.With().CheckAll(context.Background(), sys, ltlProperty("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Satisfied || !report.RelativeLiveness || report.RelativeSafety {
		t.Errorf("verdicts: sat=%v rl=%v rs=%v", report.Satisfied, report.RelativeLiveness, report.RelativeSafety)
	}
	if len(report.CounterexampleLp) == 0 {
		t.Error("missing counterexample loop")
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back relive.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.RelativeLiveness != report.RelativeLiveness {
		t.Error("JSON round-trip lost data")
	}
}

func TestReduceSystem(t *testing.T) {
	sys, err := relive.ParseSystemString(`
init s0
s0 request l
s0 request r
l result s0
r result s0
`)
	if err != nil {
		t.Fatal(err)
	}
	small, err := relive.ReduceSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumStates() != 2 {
		t.Errorf("reduced to %d states, want 2", small.NumStates())
	}
	// Verdicts unchanged.
	ctx := context.Background()
	checker := relive.With()
	for _, f := range []string{"G F result", "G F request"} {
		r1, err := checker.CheckRelativeLiveness(ctx, sys, ltlProperty(f))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := checker.CheckRelativeLiveness(ctx, small, ltlProperty(f))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Holds != r2.Holds {
			t.Errorf("reduction changed verdict of %q", f)
		}
	}
}

func TestParseRegexFacade(t *testing.T) {
	ab := relive.NewAlphabet()
	a, err := relive.ParseRegex(ab, "(request (result | reject)) *")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.IsPrefixClosed(); !ok {
		t.Error("ParseRegex result not prefix-closed")
	}
	if _, err := relive.ParseRegex(ab, "("); err == nil {
		t.Error("bad regex accepted")
	}
}

func TestSimplifyAndEquivalent(t *testing.T) {
	ab := relive.NewAlphabet("a", "b")
	f := relive.MustParseLTL("F F a")
	s := relive.SimplifyLTL(f)
	if s.String() != "true U a" {
		t.Errorf("SimplifyLTL(FFa) = %s", s)
	}
	if eq, err := relive.EquivalentLTL(f, s, ab); err != nil || !eq {
		t.Errorf("simplified formula not equivalent (eq=%v, err=%v)", eq, err)
	}
	if eq, err := relive.EquivalentLTL(relive.MustParseLTL("F a"), relive.MustParseLTL("G a"), ab); err != nil || eq {
		t.Errorf("Fa and Ga reported equivalent (eq=%v, err=%v)", eq, err)
	}
	if _, err := relive.EquivalentLTL(nil, f, ab); err == nil {
		t.Error("EquivalentLTL(nil, f) did not error")
	}
	if _, err := relive.EquivalentLTL(f, s, nil); err == nil {
		t.Error("EquivalentLTL with nil alphabet did not error")
	}
}

func TestOmegaLanguageFacade(t *testing.T) {
	ab := relive.NewAlphabet("a", "b")
	lomega, err := relive.ParseOmegaRegex(ab, "( a | b ) * ( a ) ^w") // eventually only a
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checker := relive.With()
	closed, _, err := checker.IsLimitClosed(ctx, lomega)
	if err != nil {
		t.Fatal(err)
	}
	if closed {
		t.Error("FG-a language reported limit closed")
	}
	p := relive.PropertyFromLTL(relive.MustParseLTL("G F a"), relive.CanonicalLabeling(ab))
	rl, err := checker.CheckRelativeLivenessOmega(ctx, lomega, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("□◇a should be (trivially) relative liveness of eventually-only-a")
	}
	rs, err := checker.CheckRelativeSafetyOmega(ctx, lomega, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Holds {
		t.Error("□◇a should be relative safety of eventually-only-a (all members satisfy it)")
	}
}
