package serve

import (
	"sync"
	"time"

	"relive/internal/obs"
)

// CheckRecord is one completed check as retained by the flight
// recorder: enough to answer "what has this server been doing, and how
// long did each part take" without a debugger. Timings are nanoseconds;
// PhaseNS aggregates span durations by pipeline phase (core.PhaseOf).
type CheckRecord struct {
	TraceID     string           `json:"trace_id"`
	Endpoint    string           `json:"endpoint"`
	Hash        string           `json:"hash,omitempty"` // structural report key
	Verdict     string           `json:"verdict"`        // ok|cancelled|timeout|error|shed|draining|bad_request
	Status      int              `json:"status"`
	CachePath   string           `json:"cache_path,omitempty"` // report-hit|pipeline-hit|miss
	StartUnixNS int64            `json:"start_unix_ns"`
	DurationNS  int64            `json:"duration_ns"`
	QueueWaitNS int64            `json:"queue_wait_ns,omitempty"`
	PhaseNS     map[string]int64 `json:"phase_ns,omitempty"`
	Slow        bool             `json:"slow,omitempty"`      // over the slow-check threshold
	HasTrace    bool             `json:"has_trace,omitempty"` // full span tree retained
}

// InflightRecord is a check that has started but not yet completed, as
// listed by /debug/checks.
type InflightRecord struct {
	TraceID     string `json:"trace_id"`
	Endpoint    string `json:"endpoint"`
	StartUnixNS int64  `json:"start_unix_ns"`
	ElapsedNS   int64  `json:"elapsed_ns"`
}

// flightRecorder keeps a bounded ring of the last N completed checks,
// the set of in-flight ones, and — for checks over the slow threshold —
// their full span trees, keyed by trace ID. A nil *flightRecorder is
// the disabled recorder: every method is a nil-safe no-op so the
// serving hot path stays allocation-free when tracing is off.
type flightRecorder struct {
	slow      time.Duration
	maxTraces int

	mu       sync.Mutex
	ring     []CheckRecord // capacity-bounded, oldest overwritten
	next     int           // ring write cursor
	total    uint64        // completed checks ever recorded
	inflight map[string]InflightRecord
	traces   map[string]obs.Dump
	order    []string // trace retention order, oldest first
}

func newFlightRecorder(entries, traces int, slow time.Duration) *flightRecorder {
	return &flightRecorder{
		slow:      slow,
		maxTraces: traces,
		ring:      make([]CheckRecord, entries),
		inflight:  make(map[string]InflightRecord),
		traces:    make(map[string]obs.Dump),
	}
}

// begin registers an in-flight check.
func (f *flightRecorder) begin(traceID, endpoint string, start time.Time) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inflight[traceID] = InflightRecord{
		TraceID:     traceID,
		Endpoint:    endpoint,
		StartUnixNS: start.UnixNano(),
	}
}

// end moves a check from in-flight to the ring. When the check ran over
// the slow threshold and carries a span tree, the full trace is
// retained (evicting the oldest retained trace past the cap).
func (f *flightRecorder) end(rec CheckRecord, tr *obs.Trace) {
	if f == nil {
		return
	}
	rec.Slow = time.Duration(rec.DurationNS) >= f.slow
	retain := rec.Slow && tr != nil && f.maxTraces > 0
	var dump obs.Dump
	if retain {
		// Snapshot outside the lock; Dump takes the trace's own lock. A
		// span-free trace (a slow report hit — all latency, no check) is
		// not worth a retention slot.
		dump = tr.Dump()
		retain = len(dump.Spans) > 0
		rec.HasTrace = retain
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.inflight, rec.TraceID)
	if len(f.ring) > 0 {
		f.ring[f.next] = rec
		f.next = (f.next + 1) % len(f.ring)
		f.total++
	}
	if retain {
		if _, dup := f.traces[rec.TraceID]; !dup {
			f.order = append(f.order, rec.TraceID)
		}
		f.traces[rec.TraceID] = dump
		for len(f.order) > f.maxTraces {
			delete(f.traces, f.order[0])
			f.order = f.order[1:]
		}
	}
}

// recent returns the completed checks, most recent first.
func (f *flightRecorder) recent() []CheckRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int(f.total)
	if n > len(f.ring) {
		n = len(f.ring)
	}
	out := make([]CheckRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return out
}

// running returns the in-flight checks with their elapsed time.
func (f *flightRecorder) running(now time.Time) []InflightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]InflightRecord, 0, len(f.inflight))
	for _, r := range f.inflight {
		r.ElapsedNS = now.UnixNano() - r.StartUnixNS
		out = append(out, r)
	}
	return out
}

// trace returns the retained span tree for a trace ID.
func (f *flightRecorder) trace(traceID string) (obs.Dump, bool) {
	if f == nil {
		return obs.Dump{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.traces[traceID]
	return d, ok
}
