package obs

// TeeMetrics splits one instrumentation stream two ways: spans (with
// their tags and attributes) go to the spans recorder, while counters
// and gauges go to both. This is how the serving layer gives every
// request its own bounded span tree — exported as a self-contained
// JSON trace keyed by trace ID — while the process-wide metrics
// recorder behind /metrics keeps accumulating counters across requests.
// Sending spans to the shared recorder too would both grow it without
// bound under production traffic and require translating span IDs
// between recorders; the per-request trace is the single source of
// truth for spans.
//
// Either argument may be nil: a nil spans recorder degrades to the
// metrics recorder alone (spans included, the pre-tracing behavior),
// and a nil metrics recorder leaves just the request-scoped trace.
func TeeMetrics(spans, metrics Recorder) Recorder {
	if spans == nil {
		return metrics
	}
	if metrics == nil {
		return spans
	}
	return &teeRecorder{spans: spans, metrics: metrics}
}

// teeRecorder implements ParentedRecorder so that ForkWorker over a tee
// keeps explicit parent attribution (the spans side decides parenting).
type teeRecorder struct {
	spans   Recorder
	metrics Recorder
}

func (t *teeRecorder) SpanStart(name string) SpanID { return t.spans.SpanStart(name) }

func (t *teeRecorder) SpanStartAt(name string, parent SpanID) SpanID {
	if pr, ok := t.spans.(ParentedRecorder); ok {
		return pr.SpanStartAt(name, parent)
	}
	return t.spans.SpanStart(name)
}

func (t *teeRecorder) SpanEnd(id SpanID)                    { t.spans.SpanEnd(id) }
func (t *teeRecorder) SpanTag(id SpanID, k, v string)       { t.spans.SpanTag(id, k, v) }
func (t *teeRecorder) SpanInt(id SpanID, k string, v int64) { t.spans.SpanInt(id, k, v) }

func (t *teeRecorder) Count(name string, delta int64) {
	t.spans.Count(name, delta)
	t.metrics.Count(name, delta)
}

func (t *teeRecorder) Gauge(name string, value int64) {
	t.spans.Gauge(name, value)
	t.metrics.Gauge(name, value)
}
