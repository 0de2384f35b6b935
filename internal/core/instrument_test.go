package core

import (
	"context"
	"testing"

	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/ts"
)

// mustIdentityHom observes every action of sys (the identity
// abstraction, which is always simple).
func mustIdentityHom(t *testing.T, sys *ts.System) *hom.Hom {
	t.Helper()
	return hom.Identity(sys.Alphabet(), sys.Alphabet().Names()...)
}

// serverSystem is the paper's running example: a server answering each
// request with a result or a rejection.
func serverSystem(t *testing.T) *ts.System {
	t.Helper()
	sys, err := ts.ParseString(`
init idle
idle request busy
busy result idle
busy reject idle
`)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRecordedChecksMatchPlain: attaching a recorder must not change
// any verdict.
func TestRecordedChecksMatchPlain(t *testing.T) {
	sys := serverSystem(t)
	p := FromFormula(ltl.MustParse("G F result"), nil)
	tr := obs.NewTrace()

	rl, err := RelativeLiveness(obs.ContextWithRecorder(context.Background(), tr), NewPipelineCells(sys, p))
	rlPlain, err2 := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
	if err != nil || err2 != nil || rl.Holds != rlPlain.Holds {
		t.Errorf("RelativeLiveness diverges under recorder: %v/%v, %v/%v", rl, err, rlPlain, err2)
	}
	rs, err := RelativeSafety(obs.ContextWithRecorder(context.Background(), tr), NewPipelineCells(sys, p))
	rsPlain, err2 := RelativeSafety(context.Background(), NewPipelineCells(sys, p))
	if err != nil || err2 != nil || rs.Holds != rsPlain.Holds {
		t.Errorf("RelativeSafety diverges under recorder: %v/%v, %v/%v", rs, err, rsPlain, err2)
	}
	sat, err := Satisfies(obs.ContextWithRecorder(context.Background(), tr), NewPipelineCells(sys, p))
	satPlain, err2 := Satisfies(context.Background(), NewPipelineCells(sys, p))
	if err != nil || err2 != nil || sat.Holds != satPlain.Holds {
		t.Errorf("Satisfies diverges under recorder: %v/%v, %v/%v", sat, err, satPlain, err2)
	}
}

// TestLemmaSpansRecorded: the decision procedures must emit the
// paper-tagged spans the -stats tree is built from.
func TestLemmaSpansRecorded(t *testing.T) {
	sys := serverSystem(t)
	p := FromFormula(ltl.MustParse("G F result"), nil)
	tr := obs.NewTrace()
	if _, err := CheckAll(obs.ContextWithRecorder(context.Background(), tr), NewPipelineCells(sys, p)); err != nil {
		t.Fatal(err)
	}

	for span, wantTag := range map[string]string{
		"core.CheckAll":         "Section 4 (cross-checked via Theorem 4.7)",
		"core.RelativeLiveness": "Definition 4.1 via Lemma 4.3",
		"core.RelativeSafety":   "Definition 4.2 via Lemma 4.4",
		"core.Satisfies":        "Definition 3.2: L ⊆ P",
		"pre(L) ⊆ pre(L∩P)":     "Lemma 4.3: pre(L) = pre(L∩P)",
		"L ∩ lim(pre(L∩P)) ⊆ P": "Lemma 4.4: L ∩ lim(pre(L∩P)) ⊆ P",
	} {
		s, ok := tr.Find(span)
		if !ok {
			t.Errorf("span %q not recorded", span)
			continue
		}
		if s.Tags["paper"] != wantTag {
			t.Errorf("span %q paper tag = %q, want %q", span, s.Tags["paper"], wantTag)
		}
		if s.DurationNS < 0 {
			t.Errorf("span %q left open", span)
		}
	}
	// The buchi layer must have contributed operation spans with sizes.
	s, ok := tr.Find("buchi.Intersect")
	if !ok {
		t.Fatal("no buchi.Intersect span under CheckAll")
	}
	if s.Ints["out_states"] <= 0 {
		t.Errorf("buchi.Intersect out_states = %d, want > 0", s.Ints["out_states"])
	}
	if tr.Counters()["buchi.states_built"] <= 0 {
		t.Error("buchi.states_built counter not accumulated")
	}
	// Spans must nest under the CheckAll root.
	root, _ := tr.Find("core.CheckAll")
	childless := true
	for _, rec := range tr.Spans() {
		if rec.Parent == root.ID {
			childless = false
			break
		}
	}
	if childless {
		t.Error("no spans nested under core.CheckAll")
	}
}

// TestAbstractionSpans: the Sections 6–8 pipeline emits its
// paper-tagged phases.
func TestAbstractionSpans(t *testing.T) {
	sys := serverSystem(t)
	h := mustIdentityHom(t, sys)
	tr := obs.NewTrace()
	rep, err := VerifyViaAbstraction(obs.ContextWithRecorder(context.Background(), tr), sys, h, ltl.MustParse("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := VerifyViaAbstraction(context.Background(), sys, h, ltl.MustParse("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conclusion != plain.Conclusion {
		t.Errorf("conclusion diverges under recorder: %v vs %v", rep.Conclusion, plain.Conclusion)
	}
	for _, span := range []string{
		"core.VerifyViaAbstraction", "h(L)", "abstract system lim(h(L))",
		"simplicity of h", "R̄(η)", "core.RelativeLiveness",
	} {
		if _, ok := tr.Find(span); !ok {
			t.Errorf("abstraction span %q not recorded", span)
		}
	}
}

// TestSynthesisSpans: Theorem 5.1 synthesis emits its phases and the
// same implementation as the plain path.
func TestSynthesisSpans(t *testing.T) {
	sys := serverSystem(t)
	p := FromFormula(ltl.MustParse("G F result"), nil)
	tr := obs.NewTrace()
	fi, err := SynthesizeFairImplementation(obs.ContextWithRecorder(context.Background(), tr), sys, p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SynthesizeFairImplementation(context.Background(), sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if fi.System.NumStates() != plain.System.NumStates() {
		t.Errorf("synthesis diverges under recorder: %d vs %d states",
			fi.System.NumStates(), plain.System.NumStates())
	}
	for _, span := range []string{"core.SynthesizeFairImplementation", "reduce(L∩P)"} {
		if _, ok := tr.Find(span); !ok {
			t.Errorf("synthesis span %q not recorded", span)
		}
	}
}
