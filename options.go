package relive

import (
	"context"
	"io"
	"time"

	"relive/internal/obs"
)

// Observability re-exports. A Recorder receives spans (nested phase
// timers), counters, and gauges from every decision procedure; Trace is
// the in-memory implementation whose dump powers the CLIs' -stats and
// -trace-json flags. See docs/OBSERVABILITY.md for the span naming
// convention (operations are "<package>.<Op>", lemma/theorem steps use
// the paper's notation and carry a "paper" tag).
type (
	// Recorder receives spans, counters, and gauges; nil means off and
	// costs one nil check per instrumentation point.
	Recorder = obs.Recorder
	// Trace is the in-memory Recorder; safe for concurrent use.
	Trace = obs.Trace
	// TraceDump is the serializable snapshot of a Trace.
	TraceDump = obs.Dump
	// SpanRecord is one recorded phase with duration, automaton sizes,
	// and paper tags.
	SpanRecord = obs.SpanRecord
)

// NewTrace returns an empty in-memory trace recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// ReadTraceJSON parses a dump written by (*Trace).WriteJSON.
func ReadTraceJSON(r io.Reader) (TraceDump, error) { return obs.ReadJSON(r) }

// Checker runs the decision procedures. Each verdict is one method,
// whose first argument is a context.Context and whose property is a
// Property; a formula enters as PropertyFromLTL(f, nil). The zero value
// and With() with no options are the default checker; options attach a
// Recorder and the statistical engine's settings. The portfolio methods
// run on a runtime.GOMAXPROCS(0) worker pool and the statistical engine
// samples on as many walkers; every other check runs serially on the
// calling goroutine.
//
// Every method polls ctx cooperatively inside its expensive loops (trim,
// Büchi products, subset-construction inclusion, emptiness search), so a
// deadline or cancellation stops the PSPACE work promptly. A cancelled
// check returns an error wrapping context.Canceled or
// context.DeadlineExceeded; test with errors.Is. A context error is
// never a verdict: a completed check with a negative verdict returns
// (result, nil), and a genuine verdict error is returned even when a
// concurrent sibling was torn down by the cancellation.
type Checker struct {
	rec Recorder

	// Statistical engine options (see statistical.go).
	statSeed    int64
	statSamples int
	statSteps   int
	statConf    float64
	fbStates    int
	fbTimeout   time.Duration
	fbSet       bool
}

// Option configures a Checker.
type Option func(*Checker)

// WithRecorder attaches a recorder so every phase of every check run
// through the returned Checker reports spans and metrics to it.
func WithRecorder(rec Recorder) Option {
	return func(c *Checker) { c.rec = rec }
}

// With returns a Checker carrying the given options:
//
//	tr := relive.NewTrace()
//	res, err := relive.With(relive.WithRecorder(tr)).CheckRelativeLiveness(ctx, sys, p)
//	tr.WriteTree(os.Stderr)
func With(opts ...Option) *Checker {
	c := &Checker{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ctx returns ctx carrying the Checker's recorder, if it has one.
func (c *Checker) ctx(ctx context.Context) context.Context {
	if c.rec == nil {
		return ctx
	}
	return obs.ContextWithRecorder(ctx, c.rec)
}
