package core

import (
	"fmt"

	"relive/internal/obs"
	"relive/internal/ts"
)

// Report bundles the three verdicts of Section 4 for one system and
// property, with witnesses rendered as action names. It marshals to
// JSON for tooling (rlcheck -json).
type Report struct {
	Property string `json:"property"`
	States   int    `json:"states"`

	Satisfied        bool     `json:"satisfied"`
	Counterexample   []string `json:"counterexample,omitempty"`
	CounterexampleLp []string `json:"counterexampleLoop,omitempty"`

	RelativeLiveness bool     `json:"relativeLiveness"`
	BadPrefix        []string `json:"badPrefix,omitempty"`

	RelativeSafety bool     `json:"relativeSafety"`
	Violation      []string `json:"violation,omitempty"`
	ViolationLoop  []string `json:"violationLoop,omitempty"`

	// Statistical is set only when the report came from the sampling
	// engine (the statistical-fallback path): the three verdict booleans
	// then all carry the single sampled fair verdict — a
	// confidence-interval answer, never an exact one — and this field
	// holds the full sampled evidence. See StatisticalReport.
	Statistical *StatisticalReport `json:"statistical,omitempty"`
}

// CheckAll runs satisfaction, relative liveness and relative safety and
// cross-checks Theorem 4.7 (satisfied ⟺ RL ∧ RS) as an internal
// consistency assertion.
func CheckAll(sys *ts.System, p Property) (*Report, error) {
	return CheckAllRec(nil, sys, p)
}

// CheckAllRec is CheckAll with all three decision procedures reported
// to rec under one "core.CheckAll" root span. The three procedures run
// over one shared pipeline, so the behavior automaton, the property
// automaton and its negation, and the pre(L∩P) product are each built
// once instead of once per procedure.
func CheckAllRec(rec obs.Recorder, sys *ts.System, p Property) (*Report, error) {
	sp := obs.StartSpan(rec, "core.CheckAll").
		Tag("paper", "Section 4 (cross-checked via Theorem 4.7)")
	defer sp.End()
	return checkAllPipe(newPipeline(rec, sys, p))
}

// checkAllPipe runs the three verdicts serially over pl and assembles
// the report. CheckAllRec and the portfolio workers share it.
func checkAllPipe(pl *pipeline) (*Report, error) {
	sat, err := satisfiesPipe(pl)
	if err != nil {
		return nil, err
	}
	rl, err := relativeLivenessPipe(pl)
	if err != nil {
		return nil, err
	}
	rs, err := relativeSafetyPipe(pl)
	if err != nil {
		return nil, err
	}
	return assembleReport(pl.sys, pl.p, sat, rl, rs)
}

// assembleReport cross-checks Theorem 4.7 and renders the three results
// as one Report with action-name witnesses.
func assembleReport(sys *ts.System, p Property, sat SatisfactionResult, rl LivenessResult, rs SafetyResult) (*Report, error) {
	if sat.Holds != (rl.Holds && rs.Holds) {
		return nil, fmt.Errorf(
			"core: internal inconsistency (Theorem 4.7): satisfied=%v, RL=%v, RS=%v",
			sat.Holds, rl.Holds, rs.Holds)
	}
	ab := sys.Alphabet()
	r := &Report{
		Property:         p.String(),
		States:           sys.NumStates(),
		Satisfied:        sat.Holds,
		RelativeLiveness: rl.Holds,
		RelativeSafety:   rs.Holds,
	}
	if !sat.Holds {
		for _, s := range sat.Counterexample.Prefix {
			r.Counterexample = append(r.Counterexample, ab.Name(s))
		}
		for _, s := range sat.Counterexample.Loop {
			r.CounterexampleLp = append(r.CounterexampleLp, ab.Name(s))
		}
	}
	if !rl.Holds {
		for _, s := range rl.BadPrefix {
			r.BadPrefix = append(r.BadPrefix, ab.Name(s))
		}
	}
	if !rs.Holds {
		for _, s := range rs.Violation.Prefix {
			r.Violation = append(r.Violation, ab.Name(s))
		}
		for _, s := range rs.Violation.Loop {
			r.ViolationLoop = append(r.ViolationLoop, ab.Name(s))
		}
	}
	return r, nil
}

// boolInt renders a verdict as a span attribute value.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
