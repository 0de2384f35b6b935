package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"relive/internal/core"
	"relive/internal/obs"
	"relive/internal/serve/cache"
	"relive/internal/store"
)

// serverMetrics is the server's latency-histogram set: per-endpoint
// request latency, per-phase pipeline durations, queue wait, and
// request latency split by cache path. The maps are built once at New
// and only read afterwards, so observation is lock-free (the histograms
// themselves are atomic); unknown labels hit a nil histogram, whose
// Observe is a no-op.
type serverMetrics struct {
	endpoint  map[string]*obs.Histogram // full request latency, ns
	phase     map[string]*obs.Histogram // pipeline phase duration, ns
	cachePath map[string]*obs.Histogram // request latency by cache path, ns
	queueWait *obs.Histogram            // admission queue wait, ns
	storeRead *obs.Histogram            // persistent-store report probe, ns
}

var cachePathLabels = []string{cachePathReportHit, cachePathStoreHit, cachePathPipelineHit, cachePathMiss}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		endpoint:  make(map[string]*obs.Histogram),
		phase:     make(map[string]*obs.Histogram, len(core.Phases)),
		cachePath: make(map[string]*obs.Histogram, len(cachePathLabels)),
		queueWait: &obs.Histogram{},
		storeRead: &obs.Histogram{},
	}
	for _, ep := range endpoints {
		m.endpoint[ep.name] = &obs.Histogram{}
	}
	for _, e := range []string{"healthz", "metrics", "debug"} {
		m.endpoint[e] = &obs.Histogram{}
	}
	for _, p := range core.Phases {
		m.phase[p] = &obs.Histogram{}
	}
	for _, c := range cachePathLabels {
		m.cachePath[c] = &obs.Histogram{}
	}
	return m
}

// handleMetrics renders the server's recorder state in the Prometheus
// text exposition format: every obs counter (monotone) and gauge from
// the decision procedures and the serving layer, plus the three caches'
// hit/miss/eviction/occupancy figures. Names are prefixed with
// "relive_" and sanitized ("buchi.intersect.calls" →
// relive_buchi_intersect_calls).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	counters := s.tr.Counters()
	for _, name := range sortedKeys(counters) {
		writeSample(&b, "counter", metricName(name)+"_total", "", counters[name])
	}
	gauges := s.tr.Gauges()
	for _, name := range sortedKeys(gauges) {
		writeSample(&b, "gauge", metricName(name), "", gauges[name])
	}
	writeCacheStats(&b, "system", s.systems.Stats())
	writeCacheStats(&b, "pipeline", s.pipelines.Stats())
	writeCacheStats(&b, "report", s.reports.Stats())
	if s.store != nil {
		writeStoreStats(&b, s.store.Stats())
	}

	writeHistogramFamily(&b, "relive_serve_request_seconds", "endpoint", s.metrics.endpoint)
	writeHistogramFamily(&b, "relive_check_phase_seconds", "phase", s.metrics.phase)
	writeHistogramFamily(&b, "relive_serve_cache_path_seconds", "path", s.metrics.cachePath)
	fmt.Fprintf(&b, "# TYPE relive_serve_queue_wait_seconds histogram\n")
	writeHistogramSeries(&b, "relive_serve_queue_wait_seconds", "", s.metrics.queueWait.Snapshot())
	if s.store != nil {
		fmt.Fprintf(&b, "# TYPE relive_store_read_seconds histogram\n")
		writeHistogramSeries(&b, "relive_store_read_seconds", "", s.metrics.storeRead.Snapshot())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// histExportBoundsNS are the fixed bucket bounds published on /metrics:
// 1µs · 4^i up to ~67s. The internal quarter-octave histograms are much
// finer; CumulativeLE projects them onto this stable, small set so the
// exposition stays a few lines per series and bounds never shift
// between scrapes.
var histExportBoundsNS = func() []int64 {
	out := make([]int64, 0, 14)
	for b := int64(1000); b < 100e9; b *= 4 {
		out = append(out, b)
	}
	return out
}()

// writeHistogramFamily renders one labeled histogram family in bucket
// cumulative form.
func writeHistogramFamily(b *strings.Builder, name, labelKey string, series map[string]*obs.Histogram) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	for _, label := range sortedKeys(series) {
		writeHistogramSeries(b, name, fmt.Sprintf("%s=%q", labelKey, label), series[label].Snapshot())
	}
}

// writeHistogramSeries renders one histogram's _bucket/_sum/_count
// lines; labels is a preformatted `key="value"` pair or "".
func writeHistogramSeries(b *strings.Builder, name, labels string, s obs.HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, bound := range histExportBoundsNS {
		le := strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, s.CumulativeLE(bound))
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labels, float64(s.Sum)/1e9)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, s.Count)
}

// writeSample renders one counter or gauge under its own TYPE line;
// labels is a preformatted `{key="value"}` or "".
func writeSample(b *strings.Builder, typ, name, labels string, v int64) {
	fmt.Fprintf(b, "# TYPE %s %s\n%s%s %d\n", name, typ, name, labels, v)
}

// writeCacheStats renders one cache's counters with a "cache" label.
func writeCacheStats(b *strings.Builder, cacheName string, st cache.Stats) {
	labels := fmt.Sprintf("{cache=%q}", cacheName)
	writeSample(b, "counter", "relive_serve_cache_hits_total", labels, st.Hits)
	writeSample(b, "counter", "relive_serve_cache_misses_total", labels, st.Misses)
	writeSample(b, "counter", "relive_serve_cache_evictions_total", labels, st.Evictions)
	writeSample(b, "gauge", "relive_serve_cache_entries", labels, int64(st.Len))
	writeSample(b, "gauge", "relive_serve_cache_capacity", labels, int64(st.Cap))
}

// writeStoreStats renders the persistent store's counters and
// occupancy.
func writeStoreStats(b *strings.Builder, st store.Stats) {
	writeSample(b, "counter", "relive_store_hits_total", "", st.Hits)
	writeSample(b, "counter", "relive_store_misses_total", "", st.Misses)
	writeSample(b, "counter", "relive_store_corrupt_total", "", st.Corrupt)
	writeSample(b, "counter", "relive_store_puts_total", "", st.Puts)
	writeSample(b, "counter", "relive_store_evicted_total", "", st.Evicted)
	writeSample(b, "gauge", "relive_store_artifacts", "", st.Artifacts)
	writeSample(b, "gauge", "relive_store_bytes", "", st.Bytes)
	writeSample(b, "gauge", "relive_store_max_bytes", "", st.MaxBytes)
}

// metricName sanitizes an obs counter/gauge name into a Prometheus
// metric name.
func metricName(name string) string {
	var b strings.Builder
	b.WriteString("relive_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
