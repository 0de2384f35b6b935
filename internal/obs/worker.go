package obs

// ParentedRecorder is the optional capability a Recorder can implement
// to support correct span nesting under concurrency: opening a span
// under an explicit parent instead of the recorder's implicit
// innermost-open-span rule. Trace implements it.
type ParentedRecorder interface {
	Recorder
	// SpanStartAt opens a span as a child of parent (0 = root).
	SpanStartAt(name string, parent SpanID) SpanID
}

// ForkWorker returns a Recorder view of under for one worker goroutine.
// The returned recorder keeps its own open-span stack, so spans started
// by this goroutine nest under each other (not under whatever another
// goroutine happens to have open), and its top-level spans are parented
// under parent and tagged "worker" = worker. Counters and gauges pass
// through unchanged.
//
// When under does not implement ParentedRecorder, top-level parenting
// falls back to under's own rule; nesting within the worker is still
// tracked locally so tags land on the right spans.
//
// The returned Recorder must be used by a single goroutine (the local
// stack is unsynchronized); under carries its own synchronization.
// ForkWorker of a nil recorder is nil, preserving the allocation-free
// off path.
func ForkWorker(under Recorder, worker string, parent SpanID) Recorder {
	if under == nil {
		return nil
	}
	return &workerRecorder{under: under, worker: worker, parent: parent}
}

type workerRecorder struct {
	under  Recorder
	worker string
	parent SpanID
	open   []SpanID
}

func (w *workerRecorder) SpanStart(name string) SpanID {
	parent := w.parent
	top := len(w.open) == 0
	if !top {
		parent = w.open[len(w.open)-1]
	}
	var id SpanID
	if pr, ok := w.under.(ParentedRecorder); ok {
		id = pr.SpanStartAt(name, parent)
	} else {
		id = w.under.SpanStart(name)
	}
	if top && w.worker != "" {
		w.under.SpanTag(id, "worker", w.worker)
	}
	w.open = append(w.open, id)
	return id
}

func (w *workerRecorder) SpanEnd(id SpanID) {
	for i := len(w.open) - 1; i >= 0; i-- {
		if w.open[i] == id {
			w.open = w.open[:i]
			break
		}
	}
	w.under.SpanEnd(id)
}

// SpanStartAt makes workerRecorder a ParentedRecorder itself, so a
// nested ForkWorker (a worker forking sub-workers of its own, such as a
// portfolio pool run on a worker's recorder) keeps **explicit**
// parenting all the way down to the underlying trace. Before this, a
// nested fork saw a plain Recorder and fell back to w.under.SpanStart —
// which parents under the outer worker's local bracketing stack, i.e.
// under whatever span a *sibling* worker happened to have open, and,
// once the parent span had ended, could drift onto another request's
// subtree entirely.
// Explicitly parented spans bypass the local stack by design.
func (w *workerRecorder) SpanStartAt(name string, parent SpanID) SpanID {
	if pr, ok := w.under.(ParentedRecorder); ok {
		return pr.SpanStartAt(name, parent)
	}
	return w.under.SpanStart(name)
}

func (w *workerRecorder) SpanTag(id SpanID, key, value string) { w.under.SpanTag(id, key, value) }
func (w *workerRecorder) SpanInt(id SpanID, key string, value int64) {
	w.under.SpanInt(id, key, value)
}
func (w *workerRecorder) Count(name string, delta int64) { w.under.Count(name, delta) }
func (w *workerRecorder) Gauge(name string, value int64) { w.under.Gauge(name, value) }
