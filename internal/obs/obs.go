// Package obs is the zero-dependency observability layer of the
// library: nested phase spans (timers), monotonic counters, and
// last-value gauges behind a Recorder interface. The decision
// procedures are PSPACE-complete (Theorem 4.5 of Nitsche & Wolper,
// PODC'97), so in practice their cost is dominated by automaton blowup
// in intersection, complementation, and limit closure; this package is
// how that blowup becomes visible.
//
// Design rules:
//
//   - A nil Recorder means "off". Every helper takes the nil fast path
//     with a single comparison, records nothing, and allocates nothing
//     (asserted by testing.AllocsPerRun in the test suite).
//   - Span is a value type so that starting and ending a span on the
//     nil path moves only two words on the stack.
//   - Recorder implementations must be safe for concurrent use; the
//     Trace implementation in this package guards all state with a
//     mutex and is exercised under the race detector.
//   - Span names follow the convention documented in
//     docs/OBSERVABILITY.md: "<package>.<Operation>" for code phases
//     and the paper's own notation (e.g. "pre(L) ⊆ pre(L∩P)") for
//     lemma/theorem steps, with the citation attached as a "paper" tag.
package obs

// SpanID identifies a span within a Recorder. The zero value means
// "no span" and is what the nil fast path carries.
type SpanID int64

// Recorder receives spans, counters, and gauges from instrumented code.
// Implementations must be safe for concurrent use. Counters accumulate;
// gauges keep the last recorded value.
type Recorder interface {
	// SpanStart opens a span. The recorder decides the parent (the
	// Trace implementation nests under the innermost open span).
	SpanStart(name string) SpanID
	// SpanEnd closes the span, fixing its duration.
	SpanEnd(id SpanID)
	// SpanTag attaches a string attribute (e.g. the paper reference).
	SpanTag(id SpanID, key, value string)
	// SpanInt attaches an integer attribute (e.g. a state count).
	SpanInt(id SpanID, key string, value int64)
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Gauge records the most recent value of the named gauge.
	Gauge(name string, value int64)
}

// Span is a lightweight handle to an open span. The zero value is the
// disabled span: every method is a nil check and nothing more.
type Span struct {
	rec Recorder
	id  SpanID
}

// StartSpan opens a span on rec, or returns the disabled span when rec
// is nil.
func StartSpan(rec Recorder, name string) Span {
	if rec == nil {
		return Span{}
	}
	return Span{rec: rec, id: rec.SpanStart(name)}
}

// ID returns the span's identifier on its recorder, or 0 for the
// disabled span. Callers use it to fork per-goroutine recorders that
// parent their spans under this span (see ForkWorker).
func (s Span) ID() SpanID { return s.id }

// End closes the span.
func (s Span) End() {
	if s.rec != nil {
		s.rec.SpanEnd(s.id)
	}
}

// Tag attaches a string attribute and returns the span for chaining.
func (s Span) Tag(key, value string) Span {
	if s.rec != nil {
		s.rec.SpanTag(s.id, key, value)
	}
	return s
}

// Int attaches an integer attribute and returns the span for chaining.
func (s Span) Int(key string, value int64) Span {
	if s.rec != nil {
		s.rec.SpanInt(s.id, key, value)
	}
	return s
}

// Count adds delta to a counter on the span's recorder.
func (s Span) Count(name string, delta int64) {
	if s.rec != nil {
		s.rec.Count(name, delta)
	}
}

// Count adds delta to a counter on rec; no-op when rec is nil.
func Count(rec Recorder, name string, delta int64) {
	if rec != nil {
		rec.Count(name, delta)
	}
}

// Gauge records a gauge value on rec; no-op when rec is nil.
func Gauge(rec Recorder, name string, value int64) {
	if rec != nil {
		rec.Gauge(name, value)
	}
}
