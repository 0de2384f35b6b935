package core

import (
	"context"
	"fmt"

	"relive/internal/interrupt"
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

// CheckAll runs satisfaction, relative liveness and relative safety
// serially over pc's shared artifacts and cross-checks Theorem 4.7
// (satisfied ⟺ RL ∧ RS) as an internal consistency assertion. The
// behavior automaton, the property automaton and its negation, and the
// pre(L∩P) product are each built once for the three procedures, whose
// spans nest under one "core.CheckAll" span on ctx's recorder.
func CheckAll(ctx context.Context, pc *PipelineCells) (*Report, error) {
	if err := interrupt.Done(ctx); err != nil {
		return nil, fmt.Errorf("core: check all: %w", err)
	}
	sp := obs.StartSpan(obs.RecorderFromContext(ctx), "core.CheckAll").
		Tag("paper", "Section 4 (cross-checked via Theorem 4.7)")
	defer sp.End()
	return checkAll(ctx, pc)
}

// checkAll runs the three verdicts over pc and assembles the report.
// CheckAll and the portfolio workers share it.
func checkAll(ctx context.Context, pc *PipelineCells) (*Report, error) {
	sat, err := Satisfies(ctx, pc)
	if err != nil {
		return nil, err
	}
	rl, err := RelativeLiveness(ctx, pc)
	if err != nil {
		return nil, err
	}
	rs, err := RelativeSafety(ctx, pc)
	if err != nil {
		return nil, err
	}
	return assembleReport(pc.sc.sys, pc.prop.p, sat, rl, rs)
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
