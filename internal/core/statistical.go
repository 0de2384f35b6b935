package core

import (
	"context"
	"fmt"

	"relive/internal/interrupt"
	"relive/internal/ltl"
	"relive/internal/mc"
	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// This file is the Section 9 outlook made executable: a statistical
// relative-liveness check. Under the uniform random scheduler a run of
// a finite-state system almost surely settles into a bottom SCC and
// sweeps it strongly fairly, so "P holds with probability 1" coincides
// with "all strongly fair runs satisfy P" — the fair reading that
// relative liveness properties enjoy on the Theorem 5.1
// implementation (AllFairRunsSatisfy is the exact counterpart the
// differential battery pins this engine against). The engine samples
// that distribution via internal/mc and reports a confidence-interval
// verdict that is never claimed exact; only a sampled counterexample —
// a genuine behavior of the system violating P — is a sound,
// non-statistical "fails".

// StatOptions parameterizes a statistical check. Zero fields take
// defaults (mc.DefaultSamples walks of mc.DefaultSteps steps at
// mc.DefaultConfidence); Seed is used as given, and Workers only
// changes the wall clock, never the report.
type StatOptions struct {
	Seed       int64
	Samples    int
	Steps      int
	Confidence float64
	Workers    int
}

func (o StatOptions) config() mc.Config {
	return mc.Config{
		Seed:       o.Seed,
		Samples:    o.Samples,
		Steps:      o.Steps,
		Confidence: o.Confidence,
		Workers:    o.Workers,
	}.Defaulted()
}

// Statistical verdict labels.
const (
	StatVerdictHolds        = "holds"
	StatVerdictFails        = "fails"
	StatVerdictInconclusive = "inconclusive"
)

// StatisticalReport is the outcome of a statistical check. Statistical
// is always true: a "holds" verdict means every settled sample
// satisfied P and the interval [CILow, CIHigh] bounds the satisfaction
// probability at the configured confidence — it is never an exact
// verdict. A "fails" verdict, by contrast, is sound: the reported
// counterexample is a behavior of the system violating P.
// "inconclusive" means no walk settled into a bottom SCC within the
// step budget (raise Steps). The report is a deterministic function of
// (system, property, seed, samples, steps, confidence) and marshals to
// byte-identical JSON on every replay.
type StatisticalReport struct {
	Property    string `json:"property"`
	States      int    `json:"states"`
	Statistical bool   `json:"statistical"` // always true

	Verdict string `json:"verdict"` // "holds", "fails", or "inconclusive"
	Holds   bool   `json:"holds"`
	Vacuous bool   `json:"vacuous,omitempty"`

	Seed       int64   `json:"seed"`
	Samples    int     `json:"samples"`
	Settled    int     `json:"settled"`
	Hits       int     `json:"hits"`
	Steps      int     `json:"steps"`
	Confidence float64 `json:"confidence"`
	Estimate   float64 `json:"estimate"`
	CILow      float64 `json:"ciLow"`
	CIHigh     float64 `json:"ciHigh"`
	Method     string  `json:"method"` // "clopper-pearson"

	// On a "fails" verdict, the violating sampled behavior (action
	// names) and the sample index that produced it.
	Counterexample     []string `json:"counterexample,omitempty"`
	CounterexampleLoop []string `json:"counterexampleLoop,omitempty"`
	SampleIndex        int      `json:"sampleIndex,omitempty"`

	lasso word.Lasso
}

// Witness returns the violating sampled lasso (symbols over the
// system's alphabet) when the verdict is "fails".
func (r *StatisticalReport) Witness() (word.Lasso, bool) {
	return r.lasso, r.Verdict == StatVerdictFails
}

// CheckStatistical estimates whether almost all runs of sc's system
// satisfy p by uniform random-walk sampling; see StatisticalReport for
// the verdict semantics. Sampling walks the *trimmed* system from sc:
// dead ends are impossible there, and trimming preserves behaviors, so
// sampled counterexamples are behaviors of the original system. The
// trim phase and the sampling sweep report to ctx's recorder
// ("trim(L)" and "mc.sample" spans, mc.samples/mc.settled/mc.hits/
// mc.steps counters).
func CheckStatistical(ctx context.Context, sc *SystemCells, p Property, o StatOptions) (*StatisticalReport, error) {
	if err := interrupt.Done(ctx); err != nil {
		return nil, fmt.Errorf("statistical: %w", err)
	}
	cfg := o.config()
	sys := sc.System()

	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.CheckStatistical").
		Tag("paper", "Section 9 outlook: almost all computations satisfy the property").
		Int("samples", int64(cfg.Samples)).
		Int("steps", int64(cfg.Steps))
	defer sp.End()

	report := &StatisticalReport{
		Property:    p.String(),
		States:      sys.NumStates(),
		Statistical: true,
		Seed:        cfg.Seed,
		Samples:     cfg.Samples,
		Steps:       cfg.Steps,
		Confidence:  cfg.Confidence,
		Method:      "clopper-pearson",
	}

	trimmed, err := sc.trimmed(ctx)
	if err != nil {
		return nil, fmt.Errorf("statistical: %w", err)
	}
	if trimmed == nil {
		// No infinite behavior: every run satisfies P vacuously, and
		// there is nothing to sample.
		report.Verdict = StatVerdictHolds
		report.Holds = true
		report.Vacuous = true
		report.Samples = 0
		report.CIHigh = 1
		sp.Tag("verdict", report.Verdict)
		return report, nil
	}

	newEval, err := statEval(ctx, sys, p)
	if err != nil {
		return nil, fmt.Errorf("statistical: %w", err)
	}
	msp := obs.StartSpan(rec, "mc.sample").
		Tag("paper", "Section 9 outlook: uniform-scheduler sampling").
		Int("samples", int64(cfg.Samples)).
		Int("steps", int64(cfg.Steps))
	res, err := mc.Run(ctx, trimmed, cfg, newEval)
	if err != nil {
		msp.Tag("aborted", "context")
		msp.End()
		return nil, fmt.Errorf("statistical: %w", err)
	}
	msp.Int("settled", int64(res.Settled))
	msp.Int("hits", int64(res.Hits))
	msp.Int("steps_walked", res.StepsWalked)
	msp.End()
	obs.Count(rec, "mc.samples", int64(res.Samples))
	obs.Count(rec, "mc.settled", int64(res.Settled))
	obs.Count(rec, "mc.hits", int64(res.Hits))
	obs.Count(rec, "mc.steps", res.StepsWalked)

	report.Settled = res.Settled
	report.Hits = res.Hits
	report.Estimate = res.Estimate
	report.CILow = res.Low
	report.CIHigh = res.High
	switch {
	case res.Counterexample != nil:
		report.Verdict = StatVerdictFails
		report.SampleIndex = res.Counterexample.Index
		report.lasso = res.Counterexample.Lasso.Normalize()
		ab := sys.Alphabet()
		for _, s := range report.lasso.Prefix {
			report.Counterexample = append(report.Counterexample, ab.Name(s))
		}
		for _, s := range report.lasso.Loop {
			report.CounterexampleLoop = append(report.CounterexampleLoop, ab.Name(s))
		}
	case res.Settled == 0:
		report.Verdict = StatVerdictInconclusive
	default:
		report.Verdict = StatVerdictHolds
		report.Holds = true
	}
	sp.Tag("verdict", report.Verdict)
	return report, nil
}

// statEval compiles p into the evaluator constructor the sampler calls
// once per worker. A formula-backed property is compiled once
// (ltl.Compile), and each worker evaluates it in its own scratch; an
// automaton-backed one is judged by lasso membership in the automaton,
// which needs no scratch.
func statEval(ctx context.Context, sys *ts.System, p Property) (func() func(word.Lasso) (bool, error), error) {
	if f := p.Formula(); f != nil {
		prog := ltl.Compile(f, p.labelingFor(sys.Alphabet()))
		return func() func(word.Lasso) (bool, error) {
			return prog.Evaluator().Eval
		}, nil
	}
	aut, err := p.Automaton(ctx, sys.Alphabet())
	if err != nil {
		return nil, err
	}
	accepts := func(l word.Lasso) (bool, error) {
		return aut.AcceptsLasso(l), nil
	}
	return func() func(word.Lasso) (bool, error) { return accepts }, nil
}
