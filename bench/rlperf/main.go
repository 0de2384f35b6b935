// Command rlperf is the repository's benchmark: it drives an in-process
// rlserve (or a router in front of two store-sharing backends) over
// loopback HTTP with a generated workload, checks every answer, and
// prints end-to-end metrics from an untraced pass and, with -trace 1,
// per-layer metrics from a second, traced pass. See bench/README.md.
//
//	rlperf -workload cold-exact -seed 1 -seconds 10 -trace 0
//	rlperf -compare PARENT.jsonl CHANGE.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics BENCHMARK.json lists for the mode
// (end_to_end without tracing, per_layer with it).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"relive/internal/obs"
	"relive/internal/serve"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string // append the full record to this JSON-lines file
	spans     string // traced pass: write the benchmark's spans here
	benchmark string // BENCHMARK.json
	scratch   string // parent of the run's scratch directory

	// Test seams: tail is the samples a high quantile needs beyond it
	// (minTail), and scale divides every fill and warm-up count (1).
	tail  int
	scale int
}

func main() {
	o := options{tail: minTail, scale: 1}
	var traceFlag int
	var cmp bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-exact, hot-mix, sampled or cluster-store")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: add a traced pass and report the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append this run's record, with every metric, to `FILE` (JSON lines)")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the benchmark's own spans to `FILE`")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition `FILE`")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "`DIR` for the run's temporary store volumes")
	flag.BoolVar(&cmp, "compare", false, "compare two result files: -compare PARENT.jsonl CHANGE.jsonl")
	flag.Parse()

	if cmp {
		if flag.NArg() != 2 {
			fail(errors.New("-compare wants two result files"))
		}
		regressed, err := compare(os.Stdout, o.benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, lines, err := run(o)
	if err != nil {
		fail(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if o.out != "" {
		if err := appendRecord(o.out, res); err != nil {
			fail(err)
		}
	}
	data, err := json.Marshal(res.result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rlperf:", err)
	os.Exit(2)
}

// record is one run: every metric it measured, for -out and -compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	result resultLine
}

// resultLine is the last line of standard output: the metrics
// BENCHMARK.json lists for the run's mode.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func appendRecord(path string, r *record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes one benchmark run and returns its record plus the
// human-readable lines to print before the result.
func run(o options) (*record, []string, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	def, err := readBenchmark(o.benchmark)
	if err != nil {
		return nil, nil, err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(o.scratch, "rlperf-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)

	var timings []string
	since := func(what string, start time.Time) {
		timings = append(timings, fmt.Sprintf("%s %.1fs", what, time.Since(start).Seconds()))
	}
	start := time.Now()
	sched := w.build(o.seed, o.seconds, w.MaxRate, o.scale)
	since("generate", start)
	start = time.Now()
	plain, err := runPass(w, &sched, o, scratch, nil)
	if err != nil {
		return nil, nil, err
	}
	all, err := endToEnd(plain, w.Open, o.tail)
	if err != nil {
		return nil, nil, err
	}
	since("untraced pass", start)
	passes := []*pass{plain}
	violations := 0
	if o.trace {
		start = time.Now()
		spans := obs.NewTrace()
		traced, err := runPass(w, &sched, o, scratch, spans)
		if err != nil {
			return nil, nil, err
		}
		p50, _ := all.get("latency_p50_ms")
		layers, v, err := perLayer(w, traced, p50.Value, spans, scratch, o.tail)
		if err != nil {
			return nil, nil, err
		}
		violations = v
		since("traced pass", start)
		all = append(all, layers...)
		passes = append(passes, traced)
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				return nil, nil, err
			}
		}
	}

	var outs []*outcome
	answered := make([][]*outcome, len(passes))
	for pi, p := range passes {
		for _, list := range [][]outcome{p.fill, p.warm, p.run} {
			answered[pi] = append(answered[pi], window(list)...)
		}
		outs = append(outs, answered[pi]...)
	}
	start = time.Now()
	verdictErrs := checkAnswers(answered)
	since("verify", start)
	rec := &record{
		Workload:  w.Name,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		Correct:   len(verdictErrs) == 0,
		Attempted: len(outs),
		Failed:    failures(outs),
		Metrics:   map[string]metric{},
	}
	all.add("verdict_errors", float64(len(verdictErrs)), "count")
	if o.trace {
		all.add("serve.accounting_violations", float64(violations), "count")
	}
	lines := []string{
		fmt.Sprintf("# workload %s seed %d: %d requests in the window, %d sent in all, GOMAXPROCS %d",
			w.Name, o.seed, len(window(plain.run)), len(outs), runtime.GOMAXPROCS(0)),
		"# " + strings.Join(timings, ", "),
	}
	for _, m := range all {
		rec.Metrics[m.Name] = m
		lines = append(lines, fmt.Sprintf("%s %.6g %s", m.Name, m.Value, m.Unit))
	}
	if len(verdictErrs) > 0 {
		fmt.Fprintf(os.Stderr, "rlperf: %d verdict errors:\n%s\n", len(verdictErrs), summarize(verdictErrs, 5))
	}
	if failed := failedSample(outs); failed != "" {
		fmt.Fprintf(os.Stderr, "rlperf: %d of %d requests failed, e.g. %s\n", rec.Failed, len(outs), failed)
	}

	names := def.EndToEnd
	if o.trace {
		names = def.PerLayer
	}
	rec.result = resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	for _, d := range names {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s lists %s, which the %s workload did not measure", o.benchmark, d.Name, w.Name)
		}
		if m.Unit != d.Unit {
			return nil, nil, fmt.Errorf("%s gives %s the unit %s; it is measured in %s", o.benchmark, d.Name, d.Unit, m.Unit)
		}
		rec.result.Metrics[d.Name] = m
	}
	return rec, lines, nil
}

func failedSample(outs []*outcome) string {
	for _, o := range outs {
		if o.err != nil {
			return o.err.Error()
		}
		if o.failed() {
			return fmt.Sprintf("status %d: %s", o.status, o.body)
		}
	}
	return ""
}

// pass is one run of a workload's schedule against a fresh deployment.
type pass struct {
	setup         []float64
	fill, warm    []outcome
	run           []outcome
	before, after usage
	rss           float64
	scrapeBefore  []exposition
	scrapeAfter   []exposition
	routerBefore  exposition
	routerAfter   exposition
	records       [][]serve.CheckRecord
	routerURL     string
	serverURL     []string
}

// runPass fills the cluster's volume (untimed), starts the deployment,
// warms it on the schedule's prefix, and measures the window. A non-nil
// spans makes it the traced pass: requests carry trace IDs, the flight
// ring holds every check, and client spans are recorded.
func runPass(w *workload, s *schedule, o options, scratch string, spans *obs.Trace) (*pass, error) {
	p := &pass{}
	cfg := deployConfig{cluster: w.Cluster}
	if w.Cluster {
		volume, err := os.MkdirTemp(scratch, "volume-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(volume)
		cfg.volume = volume
		if p.fill, err = fill(volume, s.Fill); err != nil {
			return nil, err
		}
	}
	var ids func(int) string
	if spans != nil {
		cfg.flight = len(s.Warm) + len(s.Run)
		ids = func(position int) string { return traceID(o.seed, position) }
	}
	// Set-up is timed on a freshly collected heap, not in the middle of
	// a cycle left over from generating the schedule.
	runtime.GC()
	d, times, err := setUp(cfg, spans == nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	p.setup, p.routerURL, p.serverURL = times, d.routerURL, d.serverURL

	c := newLoadClient(d.url, spans, ids)
	defer c.close()
	if p.warm, err = c.closedLoop(s.Warm, 0, 0); err != nil {
		return nil, err
	}
	if p.scrapeBefore, p.routerBefore, err = scrapeAll(d); err != nil {
		return nil, err
	}
	// Start every window from a freshly collected heap.
	runtime.GC()
	p.before = readUsage()
	if w.Open {
		p.run = c.openLoop(s.Run, len(s.Warm))
	} else {
		window := time.Duration(o.seconds * float64(time.Second))
		if p.run, err = c.closedLoop(s.Run, len(s.Warm), window); err != nil {
			return nil, err
		}
	}
	p.after = readUsage()
	if p.rss, err = peakRSS(); err != nil {
		return nil, err
	}
	if p.scrapeAfter, p.routerAfter, err = scrapeAll(d); err != nil {
		return nil, err
	}
	if spans != nil {
		for _, srv := range d.servers {
			p.records = append(p.records, srv.FlightRecords())
		}
	}
	return p, nil
}

func scrapeAll(d *deployment) ([]exposition, exposition, error) {
	var servers []exposition
	for _, url := range d.serverURL {
		e, err := scrape(url)
		if err != nil {
			return nil, nil, err
		}
		servers = append(servers, e)
	}
	if d.routerURL == "" {
		return servers, nil, nil
	}
	router, err := scrape(d.routerURL)
	return servers, router, err
}

// traceID is the trace ID of a schedule position on the traced pass,
// built from the seed and the position.
func traceID(seed int64, position int) string {
	return fmt.Sprintf("%016x%016x", uint64(mix(seed, streamTrace, 0))|1<<63, uint64(position)+1)
}

func writeSpans(path string, spans *obs.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchmarkDef is the part of BENCHMARK.json the program reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}
