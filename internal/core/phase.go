package core

// Phase labels for the decision-procedure pipeline. A full check
// (Section 4) decomposes into four phases: trimming the system and
// building its behavior automaton, translating the property to a Büchi
// automaton (and its negation), constructing the reduced pre(L∩P)
// product (and, for Lemma 4.4, its limit), and the emptiness/inclusion
// checks that produce verdicts.
// The serving layer aggregates span durations by phase into latency
// histograms, and the flight recorder stores per-phase timings with
// each completed check.
const (
	PhaseTrim      = "trim"
	PhaseProperty  = "property_to_buchi"
	PhasePre       = "pre_product"
	PhaseEmptiness = "emptiness"
	PhaseSample    = "sampling"
)

// Phases lists the phase labels in pipeline order. PhaseSample is the
// statistical engine's random-walk sweep, which replaces the
// pre-product and emptiness phases on the sampled path.
var Phases = []string{PhaseTrim, PhaseProperty, PhasePre, PhaseEmptiness, PhaseSample}

// PhaseOf maps an obs span name emitted by the decision procedures to
// its phase label, or "" for spans that are not a pipeline phase
// (wrappers like core.CheckAll, serving-layer spans, worker spans).
// The mapped spans never nest inside one another — each is a
// single-flight cell computation, a leaf construction or a leaf
// check — so summing the durations of a trace's mapped spans measures
// each phase once.
func PhaseOf(spanName string) string {
	switch spanName {
	case "trim(L)", "lim(L)":
		return PhaseTrim
	case "P→Büchi", "¬P", "h⁻¹(¬P)":
		return PhaseProperty
	case "pre(L∩P)", "pre(L∩h⁻¹(¬P))", "lim(pre(L∩P))":
		return PhasePre
	case "pre(L) ⊆ pre(L∩P)", "L ∩ lim(pre(L∩P)) ⊆ P", "L ∩ ¬P = ∅", "fair(L∩h⁻¹(¬P))":
		return PhaseEmptiness
	case "mc.sample":
		return PhaseSample
	}
	return ""
}
