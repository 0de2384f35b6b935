package core

import (
	"context"
	"testing"

	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/paper"
	"relive/internal/rex"
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
	// The buchi layer must have contributed operation spans with sizes:
	// Lemma 4.4's emptiness check explores lim(pre(L∩P)) × ¬P on the
	// fly. Relative safety builds no Büchi product of its own — on the
	// limit-closed behaviors of a system, L ∩ lim(pre(L∩P)) is
	// lim(pre(L∩P)) — so no buchi.Intersect span may hang under it.
	lemma, _ := tr.Find("L ∩ lim(pre(L∩P)) ⊆ P")
	rs, _ := tr.Find("core.RelativeSafety")
	emptiness := false
	for _, s := range tr.Spans() {
		if s.Name == "buchi.IntersectEmpty" && s.Parent == lemma.ID {
			emptiness = true
			if s.Ints["explored_states"] <= 0 {
				t.Errorf("Lemma 4.4 buchi.IntersectEmpty explored_states = %d, want > 0", s.Ints["explored_states"])
			}
		}
		if s.Name == "buchi.Intersect" && s.Parent == rs.ID {
			t.Error("core.RelativeSafety built a buchi.Intersect product")
		}
	}
	if !emptiness {
		t.Error("no buchi.IntersectEmpty span under the Lemma 4.4 span")
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

// TestVerdictChildrenHavePhases: every direct child of a verdict span
// is a pipeline phase, so a check's phase durations account for the
// work its verdicts do. It runs CheckAll on Figure 2 with one LTL and
// one automaton-backed property (whose ¬P is a rank-based complement).
func TestVerdictChildrenHavePhases(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	o, err := rex.ParseOmega(sys.Alphabet(), "(request (yes|no|lock|free)* (result|reject))^w")
	if err != nil {
		t.Fatal(err)
	}
	aut, err := o.Buchi()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Property{FromFormula(paper.PropertyInfResults(), nil), FromAutomaton(aut)} {
		tr := obs.NewTrace()
		if _, err := CheckAll(obs.ContextWithRecorder(context.Background(), tr), NewPipelineCells(sys, p)); err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		verdicts := map[obs.SpanID]string{}
		for _, s := range spans {
			switch s.Name {
			case "core.Satisfies", "core.RelativeLiveness", "core.RelativeSafety":
				verdicts[s.ID] = s.Name
			}
		}
		if len(verdicts) != 3 {
			t.Fatalf("%s: %d verdict spans, want 3", p, len(verdicts))
		}
		for _, s := range spans {
			if parent, ok := verdicts[s.Parent]; ok && PhaseOf(s.Name) == "" {
				t.Errorf("%s: span %q under %s has no phase", p, s.Name, parent)
			}
		}
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
