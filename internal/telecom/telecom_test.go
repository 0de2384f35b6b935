package telecom

import (
	"context"
	"testing"

	"relive/internal/core"
	"relive/internal/word"
)

func TestWellIntegratedPipeline(t *testing.T) {
	sys := WellIntegrated()
	eta := HandledProperty()

	// Not satisfied outright: the bounce loop starves a call.
	p, err := core.ConcreteProperty(Abstraction(sys), eta)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if sat.Holds {
		t.Error("service guarantee satisfied without fairness despite the bounce loop")
	}
	// But it is a relative liveness property.
	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Errorf("service guarantee not relative liveness on the well-integrated switch (prefix %s)",
			rl.BadPrefix.String(sys.Alphabet()))
	}
	// And the full abstraction pipeline concludes it.
	report, err := core.VerifyViaAbstraction(context.Background(), sys, Abstraction(sys), eta)
	if err != nil {
		t.Fatal(err)
	}
	if report.Conclusion != core.ConcreteHolds {
		t.Errorf("conclusion %v, want ConcreteHolds (simple=%v abstractHolds=%v)",
			report.Conclusion, report.Simple, report.AbstractHolds)
	}
}

func TestMisintegratedBugDetected(t *testing.T) {
	sys := Misintegrated()
	eta := HandledProperty()
	p, err := core.ConcreteProperty(Abstraction(sys), eta)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Holds {
		t.Fatal("interaction bug not detected: guarantee still relative liveness")
	}
	// The bug is behind the first bounce.
	ab := sys.Alphabet()
	if !sys.AcceptsWord(rl.BadPrefix) {
		t.Errorf("bad prefix %s not a system word", rl.BadPrefix.String(ab))
	}
	// The bouncing path exists.
	if !sys.AcceptsWord(word.FromNames(ab, ActCall, ActBusy, ActForward, ActBounce, ActForward, ActBounce)) {
		t.Error("the forwarding livelock path is missing from the model")
	}
	// And the abstraction is rightly untrusted.
	nfaL, err := sys.NFA()
	if err != nil {
		t.Fatal(err)
	}
	simple, err := Abstraction(sys).IsSimple(nfaL)
	if err != nil {
		t.Fatal(err)
	}
	if simple.Simple {
		t.Error("hiding homomorphism simple on the buggy switch; abstraction would mask the bug")
	}
}

func TestModelsDiffer(t *testing.T) {
	good := WellIntegrated()
	bad := Misintegrated()
	ab := good.Alphabet()
	// Recovery after bounce exists only in the good model.
	recover := word.FromNames(ab, ActCall, ActBusy, ActForward, ActBounce, ActVoicemail, ActRecord)
	if !good.AcceptsWord(recover) {
		t.Error("well-integrated switch cannot recover via voicemail after a bounce")
	}
	badWord := word.FromNames(bad.Alphabet(), ActCall, ActBusy, ActForward, ActBounce, ActVoicemail)
	if bad.AcceptsWord(badWord) {
		t.Error("misintegrated switch still offers voicemail after a bounce")
	}
}
