package relive

import (
	"context"
	"errors"
	"time"

	"relive/internal/core"
)

// Statistical checking — the paper's Section 9 outlook ("relative
// liveness properties informally say: almost all computations satisfy
// the property") as a first-class engine. CheckStatistical samples
// uniform random walks of the system, detects the bottom SCC each walk
// settles into, evaluates the property on the resulting behavior, and
// reports a confidence-interval verdict. A "holds" verdict is
// statistical — the report says so explicitly ("statistical": true)
// and carries the interval — while a "fails" verdict is sound: the
// sampled counterexample is a genuine behavior of the system violating
// the property. The exact counterpart of the sampled verdict is
// AllFairRunsSatisfy under strong fairness (a uniform random run is
// almost surely strongly fair), which the differential battery in
// internal/oracle pins the engine against.

// StatisticalReport is the sampling engine's verdict: counts, the
// Clopper–Pearson interval, and the sampled counterexample on "fails".
// Deterministic in (system, property, seed, samples, steps,
// confidence); replays byte-identically for any number of walkers.
type StatisticalReport = core.StatisticalReport

// Statistical verdict labels carried in StatisticalReport.Verdict.
const (
	StatVerdictHolds        = core.StatVerdictHolds
	StatVerdictFails        = core.StatVerdictFails
	StatVerdictInconclusive = core.StatVerdictInconclusive
)

// WithSeed fixes the sampling engine's random seed (default 0). Two
// checks with the same seed, budget, and confidence produce
// byte-identical reports.
func WithSeed(seed int64) Option {
	return func(c *Checker) { c.statSeed = seed }
}

// WithSampleBudget sets the sampling budget: samples independent
// random walks of steps steps each. Non-positive values keep the
// defaults (400 walks of 256 steps). More samples tighten the
// confidence interval; more steps let walks settle into bottom SCCs of
// deeper graphs.
func WithSampleBudget(samples, steps int) Option {
	return func(c *Checker) {
		c.statSamples = samples
		c.statSteps = steps
	}
}

// WithConfidence sets the two-sided confidence level of the reported
// interval (default 0.99). Values outside (0, 1) keep the default.
func WithConfidence(level float64) Option {
	return func(c *Checker) { c.statConf = level }
}

// WithStatisticalFallback makes the Checker's CheckAll fall back to the
// statistical engine instead of failing or stalling on systems too big
// to check exactly: systems with more than maxStates states are sampled
// directly, and when maxExact > 0 the exact check runs under that time
// budget and a deadline overrun (with the caller's context still alive)
// reruns statistically. A fallback report carries the sampled fair
// verdict in all three verdict fields and marks itself with a non-nil
// Statistical field — it is a confidence-interval answer, never an exact
// one. maxStates <= 0 disables the state gate.
func WithStatisticalFallback(maxStates int, maxExact time.Duration) Option {
	return func(c *Checker) {
		c.fbStates = maxStates
		c.fbTimeout = maxExact
		c.fbSet = true
	}
}

// statOptions collects the Checker's sampling options.
func (c *Checker) statOptions() core.StatOptions {
	return core.StatOptions{
		Seed:       c.statSeed,
		Samples:    c.statSamples,
		Steps:      c.statSteps,
		Confidence: c.statConf,
	}
}

// CheckStatistical runs the statistical engine with the Checker's
// options (WithSeed, WithSampleBudget, WithConfidence; by default 400
// walks of 256 steps, confidence 0.99, seed 0). It samples on
// runtime.GOMAXPROCS(0) walkers; the report does not depend on how
// many.
func (c *Checker) CheckStatistical(ctx context.Context, sys *System, p Property) (*StatisticalReport, error) {
	return core.CheckStatistical(c.ctx(ctx), core.NewSystemCells(sys), p, c.statOptions())
}

// checkAllWithFallback is CheckAll under WithStatisticalFallback: exact
// when affordable, sampled otherwise.
func (c *Checker) checkAllWithFallback(ctx context.Context, sys *System, p Property) (*Report, error) {
	if c.fbStates > 0 && sys.NumStates() > c.fbStates {
		return c.statFallbackReport(ctx, sys, p)
	}
	exactCtx := ctx
	var cancel context.CancelFunc
	if c.fbTimeout > 0 {
		if exactCtx == nil {
			exactCtx = context.Background()
		}
		exactCtx, cancel = context.WithTimeout(exactCtx, c.fbTimeout)
		defer cancel()
	}
	rep, err := core.CheckAll(c.ctx(exactCtx), core.NewPipelineCells(sys, p))
	if err == nil {
		return rep, nil
	}
	// Only our own exact-time budget triggers the fallback; a caller
	// cancellation or deadline propagates as usual.
	if c.fbTimeout > 0 && errors.Is(err, context.DeadlineExceeded) &&
		(ctx == nil || ctx.Err() == nil) {
		return c.statFallbackReport(ctx, sys, p)
	}
	return nil, err
}

// statFallbackReport runs the statistical engine and renders its single
// sampled fair verdict as a CheckAll report: all three verdict booleans
// carry the sampled answer and the Statistical field holds the full
// sampled evidence, so the report can never be mistaken for exact.
func (c *Checker) statFallbackReport(ctx context.Context, sys *System, p Property) (*Report, error) {
	sr, err := c.CheckStatistical(ctx, sys, p)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Property:         sr.Property,
		States:           sr.States,
		Satisfied:        sr.Holds,
		RelativeLiveness: sr.Holds,
		RelativeSafety:   sr.Holds,
		Statistical:      sr,
	}
	if sr.Verdict == StatVerdictFails {
		rep.Counterexample = sr.Counterexample
		rep.CounterexampleLp = sr.CounterexampleLoop
		rep.Violation = sr.Counterexample
		rep.ViolationLoop = sr.CounterexampleLoop
	}
	return rep, nil
}
