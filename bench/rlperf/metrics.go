package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/obs"
	"relive/internal/serve"
	"relive/internal/store"
	"relive/internal/ts"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered metric list.
type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{Name: name, Value: value, Unit: unit})
}

func (m metrics) get(name string) (metric, bool) {
	for _, x := range m {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// window returns the outcomes the measured window issued.
func window(outs []outcome) []*outcome {
	var w []*outcome
	for i := range outs {
		if outs[i].req != nil {
			w = append(w, &outs[i])
		}
	}
	return w
}

func failures(win []*outcome) int {
	n := 0
	for _, o := range win {
		if o.failed() {
			n++
		}
	}
	return n
}

// latenciesMS times each request from when it was sent (closed loop) or
// due (open loop), so a stall in the generator counts against the
// requests it delayed. A failed request misses every latency limit. The
// result keeps the window's schedule order, which is send order up to
// the interleaving of the two clients.
func latenciesMS(win []*outcome, open bool) []float64 {
	out := make([]float64, len(win))
	for i, o := range win {
		from := o.sent
		if open {
			from = o.due
		}
		out[i] = float64(o.done-from) / 1e6
		if o.failed() {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func elapsed(win []*outcome) time.Duration {
	var last time.Duration
	for _, o := range win {
		if o.done > last {
			last = o.done
		}
	}
	return last
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(p *pass, open bool, tail int) (metrics, error) {
	win := window(p.run)
	if len(win) == 0 {
		return nil, fmt.Errorf("the window issued no requests")
	}
	lat := latenciesMS(win, open)
	p50, err := quantile(lat, 0.5, tail)
	if err != nil {
		return nil, err
	}
	p99, err := sliceQuantile(lat, 0.99, tail)
	if err != nil {
		return nil, fmt.Errorf("latency p99: %w; lengthen the window", err)
	}
	n := float64(len(win))
	var m metrics
	m.add("setup_s", median(p.setup), "s")
	m.add("throughput_rps", float64(len(win)-failures(win))/elapsed(win).Seconds(), "1/s")
	m.add("latency_p50_ms", p50, "ms")
	m.add("latency_p99_ms", p99, "ms")
	m.add("cpu_ms_per_req", float64(p.after.cpu-p.before.cpu)/1e6/n, "ms")
	m.add("alloc_kb_per_req", float64(p.after.alloc-p.before.alloc)/1024/n, "KiB")
	m.add("peak_rss_mb", p.rss, "MiB")
	m.add("failed_frac", float64(failures(win))/n, "ratio")
	return m, nil
}

// perLayer computes the layer metrics of a traced pass. The client
// spans are joined to the servers' flight records by trace ID; self time
// is a span's duration minus the parts its children cover. The first
// group is defined on every workload and is what BENCHMARK.json lists as
// per_layer; the layers only some workloads exercise (the exact phases
// past trimming, the sampler, the router) follow, reported only where
// they ran. It also returns how many records have phases plus queue wait
// above their handler time, which would make self time negative.
func perLayer(w *workload, p *pass, untracedP50 float64, spans *obs.Trace, scratch string, tail int) (metrics, int, error) {
	win := window(p.run)
	inWindow := map[string]*outcome{}
	for _, o := range win {
		inWindow[o.traceID] = o
	}
	if err := directLayerCalls(spans, win, p, scratch); err != nil {
		return nil, 0, err
	}
	clientNS := map[obs.SpanID]int64{}
	direct := map[string][]float64{}
	for _, sp := range spans.Spans() {
		if sp.DurationNS < 0 {
			continue
		}
		if _, ok := strings.CutPrefix(sp.Name, "client "); ok {
			clientNS[sp.ID] = sp.DurationNS
		} else if layer, ok := strings.CutPrefix(sp.Name, "direct "); ok {
			direct[layer] = append(direct[layer], float64(sp.DurationNS)/1e3)
		}
	}

	var (
		phaseUS                  = map[string][]float64{}
		checkUS, selfUS, queueUS []float64
		httpSelfUS               []float64
		phaseTotal, handlerTotal float64
		checks                   float64
		violations               int
	)
	for _, recs := range p.records {
		for _, r := range recs {
			o, ok := inWindow[r.TraceID]
			if !ok {
				continue
			}
			var sum int64
			for _, ph := range core.Phases {
				if ns := r.PhaseNS[ph]; ns > 0 {
					phaseUS[ph] = append(phaseUS[ph], float64(ns)/1e3)
					sum += ns
				}
			}
			if r.QueueWaitNS+sum > r.DurationNS {
				violations++
			}
			if sum > 0 {
				checkUS = append(checkUS, float64(sum)/1e3)
			}
			if r.CachePath == "miss" || r.CachePath == "pipeline-hit" {
				checks++
				queueUS = append(queueUS, float64(r.QueueWaitNS)/1e3)
			}
			phaseTotal += float64(sum)
			handlerTotal += float64(r.DurationNS)
			selfUS = append(selfUS, float64(r.DurationNS-r.QueueWaitNS-sum)/1e3)
			if c, ok := clientNS[o.span]; ok {
				httpSelfUS = append(httpSelfUS, float64(c-r.DurationNS)/1e3)
			}
		}
	}

	lat := latenciesMS(win, w.Open)
	tracedP50, err := quantile(lat, 0.5, tail)
	if err != nil {
		return nil, 0, err
	}
	lags := make([]float64, len(win))
	for i, o := range win {
		lags[i] = float64(o.sent-o.due) / 1e6
	}
	n := float64(len(win))
	sb, sa := p.scrapeBefore, p.scrapeAfter
	d := func(series string) float64 { return delta(sb, sa, series) }
	hitRatio := func(cache string) float64 {
		h := d(`relive_serve_cache_hits_total{cache="` + cache + `"}`)
		return ratio(h, h+d(`relive_serve_cache_misses_total{cache="`+cache+`"}`))
	}
	spellHits := func(s spelling) float64 {
		var hits, all float64
		for _, o := range win {
			if o.req.Spell == s {
				all++
				if o.cache == "hit" {
					hits++
				}
			}
		}
		return ratio(hits, all)
	}

	var m metrics
	var errs []error
	q := func(name string, xs []float64, qq float64, unit string) {
		v, err := quantile(xs, qq, tail)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		m.add(name, v, unit)
	}
	m.add("core.trim_us_mean", mean(phaseUS[core.PhaseTrim]), "us")
	q("core.check_us_p99", checkUS, 0.99, "us")
	m.add("core.phase_share", ratio(phaseTotal, handlerTotal), "ratio")
	m.add("buchi.states_built_per_check", ratio(d("relive_buchi_states_built_total"), checks), "count")
	m.add("buchi.emptiness_calls_per_check", ratio(d("relive_buchi_emptiness_calls_total"), checks), "count")
	m.add("mc.settled_ratio", ratio(d("relive_mc_settled_total"), d("relive_mc_samples_total")), "ratio")
	q("serve.self_us_p50", selfUS, 0.5, "us")
	q("serve.self_us_p99", selfUS, 0.99, "us")
	q("serve.decode_us_p50", direct["serve.Decode"], 0.5, "us")
	q("serve.canon_us_p50", direct["canonicalize"], 0.5, "us")
	q("serve.marshal_us_p50", direct["json.Marshal"], 0.5, "us")
	q("serve.queue_wait_us_p50", queueUS, 0.5, "us")
	q("serve.queue_wait_us_p99", queueUS, 0.99, "us")
	m.add("serve.shed_count", d("relive_serve_shed_total"), "count")
	m.add("cache.report_hit_ratio", hitRatio("report"), "ratio")
	m.add("cache.pipeline_hit_ratio", hitRatio("pipeline"), "ratio")
	m.add("cache.system_hit_ratio", hitRatio("system"), "ratio")
	m.add("cache.report_evictions_per_kreq", 1000*d(`relive_serve_cache_evictions_total{cache="report"}`)/n, "count")
	m.add("cache.respell_ws_hit_ratio", spellHits(spellSpace), "ratio")
	m.add("cache.respell_order_hit_ratio", spellHits(spellOrder), "ratio")
	sh := d("relive_store_hits_total")
	m.add("store.hit_ratio", ratio(sh, sh+d("relive_store_misses_total")), "ratio")
	m.add("store.puts_per_kreq", 1000*d("relive_store_puts_total")/n, "count")
	q("store.get_us_p50", direct["store.Get"], 0.5, "us")
	q("store.put_us_p50", direct["store.Put"], 0.5, "us")
	m.add("store.open_ms", median(direct["store.Open"])/1e3, "ms")
	q("http.self_us_p50", httpSelfUS, 0.5, "us")
	q("loadgen.lag_ms_p99", lags, 0.99, "ms")
	m.add("runtime.gc_cycles_per_kreq", 1000*float64(p.after.gcs-p.before.gcs)/n, "count")
	m.add("trace.overhead_frac", tracedP50/untracedP50-1, "ratio")

	// Workload-specific layers: reported only where the workload runs
	// them, so a layer it never touches does not read as zero cost.
	for _, ph := range []string{core.PhaseProperty, core.PhasePre, core.PhaseEmptiness, core.PhaseSample} {
		if len(phaseUS[ph]) > 0 {
			m.add("core."+ph+"_us_mean", mean(phaseUS[ph]), "us")
		}
	}
	if samples := d("relive_mc_samples_total"); samples > 0 {
		var sampling float64
		for _, us := range phaseUS[core.PhaseSample] {
			sampling += us
		}
		m.add("mc.samples_per_s", samples/(sampling/1e6), "1/s")
	}
	if p.routerURL != "" {
		var pairs float64
		for _, o := range win {
			if o.req.Pair {
				pairs++
			}
		}
		ra, rb := []exposition{p.routerAfter}, []exposition{p.routerBefore}
		m.add("router.hop_us_p50", median(httpSelfUS), "us")
		m.add("router.coalesced_ratio", ratio(delta(rb, ra, "relive_route_coalesced_total"), pairs/2), "ratio")
		m.add("router.failover_count", delta(rb, ra, "relive_route_failover_total"), "count")
		var most, total float64
		for _, url := range p.serverURL {
			v := delta(rb, ra, fmt.Sprintf("relive_route_proxied_total{backend=%q}", url))
			total += v
			most = math.Max(most, v)
		}
		m.add("router.backend_skew", ratio(most, total/float64(len(p.serverURL)))-1, "ratio")
	}
	if len(errs) > 0 {
		return nil, 0, fmt.Errorf("traced window too small: %v", errs)
	}
	return m, violations, nil
}

// directLayerCalls times the service's own layer functions on the
// window's bodies, each call inside a "direct <layer>" span: the wire
// decoders, canonicalization (system parse and format, property parse),
// response marshaling, and the store's Put, Get and Open on a scratch
// volume holding the window's reports.
func directLayerCalls(spans *obs.Trace, win []*outcome, p *pass, scratch string) error {
	const limit = 4096
	timed := func(name string, fn func() error) error {
		id := spans.SpanStartAt("direct "+name, 0)
		err := fn()
		spans.SpanEnd(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	keys := map[string]string{}
	for _, recs := range p.records {
		for _, r := range recs {
			keys[r.TraceID] = r.Hash
		}
	}
	volume := filepath.Join(scratch, "direct-store")
	st, err := store.Open(volume, store.Options{})
	if err != nil {
		return err
	}
	stored := map[string]bool{}
	for i, o := range win {
		if i == limit {
			break
		}
		r := o.req
		var body *requestText
		if err := timed("serve.Decode", func() (err error) {
			body, err = decodeRequest(r.Endpoint, r.Body)
			return err
		}); err != nil {
			return err
		}
		if err := timed("canonicalize", func() error {
			sys, err := ts.ParseString(body.system)
			if err != nil {
				return err
			}
			_ = sys.FormatString()
			for _, f := range body.formulas {
				if _, err := ltl.Parse(f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if o.failed() {
			continue
		}
		resp, err := decodeResponse(r.Endpoint, o.body)
		if err != nil {
			return err
		}
		if err := timed("json.Marshal", func() error {
			_, err := json.Marshal(resp)
			return err
		}); err != nil {
			return err
		}
		if key := keys[o.traceID]; key != "" && !stored[key] {
			stored[key] = true
			if err := timed("store.Put", func() error { return st.Put("report", key, o.body) }); err != nil {
				return err
			}
			if err := timed("store.Get", func() error {
				if _, ok := st.Get("report", key); !ok {
					return fmt.Errorf("artifact %s missing right after Put", key)
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	for i := 0; i < 3; i++ {
		if err := timed("store.Open", func() error {
			_, err := store.Open(volume, store.Options{})
			return err
		}); err != nil {
			return err
		}
	}
	return os.RemoveAll(volume)
}

// requestText is the part of a decoded request canonicalization reads.
type requestText struct {
	system   string
	formulas []string
}

func decodeRequest(endpoint string, body []byte) (*requestText, error) {
	switch endpoint {
	case "all", "liveness", "safety", "satisfies":
		r, err := serve.DecodeCheckRequest(body)
		if err != nil {
			return nil, err
		}
		return &requestText{r.System, []string{r.LTL}}, nil
	case "portfolio":
		r, err := serve.DecodePortfolioRequest(body)
		if err != nil {
			return nil, err
		}
		return &requestText{r.System, r.LTLs}, nil
	case "statistical":
		r, err := serve.DecodeStatisticalRequest(body)
		if err != nil {
			return nil, err
		}
		return &requestText{r.System, []string{r.LTL}}, nil
	case "abstraction":
		r, err := serve.DecodeAbstractionRequest(body)
		if err != nil {
			return nil, err
		}
		return &requestText{r.System, []string{r.Eta}}, nil
	case "fair-abstract":
		r, err := serve.DecodeFairAbstractRequest(body)
		if err != nil {
			return nil, err
		}
		return &requestText{r.System, []string{r.Eta}}, nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", endpoint)
}

// decodeResponse parses a 200 body into the endpoint's response type.
func decodeResponse(endpoint string, body []byte) (any, error) {
	var v any
	switch endpoint {
	case "all":
		v = &core.Report{}
	case "liveness":
		v = &serve.LivenessResponse{}
	case "safety":
		v = &serve.SafetyResponse{}
	case "satisfies":
		v = &serve.SatisfiesResponse{}
	case "portfolio":
		v = &serve.PortfolioResponse{}
	case "statistical":
		v = &core.StatisticalReport{}
	case "abstraction":
		v = &serve.AbstractionResponse{}
	case "fair-abstract":
		v = &core.FairAbstractReport{}
	default:
		return nil, fmt.Errorf("unknown endpoint %q", endpoint)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("decoding a %s response: %w", endpoint, err)
	}
	return v, nil
}
