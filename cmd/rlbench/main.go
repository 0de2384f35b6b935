// Command rlbench runs the experiment harness reproducing every figure
// and in-text claim of Nitsche & Wolper (PODC'97) and prints a
// paper-vs-measured report (the generator behind EXPERIMENTS.md).
//
// Usage:
//
//	rlbench                          # run all experiments
//	rlbench -run E5                  # run one experiment
//	rlbench -md                      # emit Markdown instead of plain text
//	rlbench -metrics-json BENCH.json # also write per-case metrics JSON
//	rlbench -parallel 4              # run experiments on 4 workers
//
// -parallel runs independent experiments concurrently on a bounded
// worker pool (0 = GOMAXPROCS, 1 = serial); reports are printed in
// registry order either way, and per-experiment durations still measure
// each experiment's own wall clock.
//
// -metrics-json writes one record per experiment with its wall-clock
// duration and every observation (automaton sizes included), so
// BENCH_*.json files can track sizes and timings across PRs. A final
// synthetic PHASES record carries p50/p90/p99/max latency per pipeline
// phase (trim, property→Büchi, pre(L∩P), emptiness) over -phase-trials
// instrumented checks (0 disables it). -cpuprofile/-memprofile write
// pprof profiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"relive/internal/exp"
	"relive/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// caseMetrics is one experiment in the -metrics-json output; the schema
// is append-only so BENCH_*.json files stay comparable across PRs
// (scripts/benchcmp reads `go test -bench` text, not this JSON, so new
// fields cannot break it). Phases is only set on the synthetic PHASES
// record carrying per-phase latency quantiles.
type caseMetrics struct {
	ID           string               `json:"id"`
	Artifact     string               `json:"artifact"`
	Title        string               `json:"title"`
	DurationNS   int64                `json:"duration_ns"`
	Passed       bool                 `json:"passed"`
	Observations []observationMetric  `json:"observations"`
	Phases       []exp.PhaseQuantiles `json:"phases,omitempty"`
}

type observationMetric struct {
	Name  string `json:"name"`
	Value string `json:"value"`
	Claim string `json:"claim,omitempty"`
	Match bool   `json:"match"`
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("run", "", "run a single experiment by id (e.g. E5)")
	markdown := fs.Bool("md", false, "emit Markdown tables")
	metricsJSON := fs.String("metrics-json", "", "write per-case metrics (durations, sizes) as JSON to this file (- for stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	parallel := fs.Int("parallel", 1, "worker-pool size for running experiments concurrently (0 = GOMAXPROCS)")
	phaseTrials := fs.Int("phase-trials", 25, "instrumented checks behind the PHASES record in -metrics-json (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "rlbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "rlbench: %v\n", err)
			code = 2
		}
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "rlbench: %v\n", err)
			code = 2
		}
	}()

	var selected []exp.Experiment
	for _, e := range exp.All() {
		if *only != "" && e.ID != *only {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "rlbench: unknown experiment %q\n", *only)
		return 2
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	results := make([]exp.Result, len(selected))
	elapsed := make([]time.Duration, len(selected))
	errs := make([]error, len(selected))
	if workers <= 1 {
		for i, e := range selected {
			start := time.Now()
			results[i], errs[i] = e.Run()
			elapsed[i] = time.Since(start)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					start := time.Now()
					results[i], errs[i] = selected[i].Run()
					elapsed[i] = time.Since(start)
				}
			}()
		}
		for i := range selected {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	var metrics []caseMetrics
	for i, e := range selected {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "rlbench: %s: %v\n", e.ID, errs[i])
			return 2
		}
		metrics = append(metrics, toMetrics(results[i], elapsed[i]))
	}
	if *metricsJSON != "" {
		if *phaseTrials > 0 {
			phases, err := phaseMetrics(*phaseTrials)
			if err != nil {
				fmt.Fprintf(stderr, "rlbench: %v\n", err)
				return 2
			}
			metrics = append(metrics, phases)
		}
		if err := writeMetrics(metrics, *metricsJSON, stdout); err != nil {
			fmt.Fprintf(stderr, "rlbench: %v\n", err)
			return 2
		}
	}

	allPassed := true
	for _, r := range results {
		if *markdown {
			printMarkdown(stdout, r)
		} else {
			fmt.Fprintln(stdout, r)
		}
		allPassed = allPassed && r.Passed()
	}
	if !allPassed {
		fmt.Fprintln(stdout, "RESULT: some observations deviate from the paper")
		return 1
	}
	fmt.Fprintf(stdout, "RESULT: all %d experiments match the paper\n", len(results))
	return 0
}

func toMetrics(r exp.Result, elapsed time.Duration) caseMetrics {
	m := caseMetrics{
		ID:         r.ID,
		Artifact:   r.Artifact,
		Title:      r.Title,
		DurationNS: elapsed.Nanoseconds(),
		Passed:     r.Passed(),
	}
	for _, o := range r.Observations {
		m.Observations = append(m.Observations, observationMetric{
			Name: o.Name, Value: o.Value, Claim: o.Claim, Match: o.Match,
		})
	}
	return m
}

// phaseMetrics builds the synthetic PHASES record: per-phase
// p50/p90/p99/max latency over a deterministic instrumented corpus, so
// BENCH_*.json files track where checking time goes, not just totals.
func phaseMetrics(trials int) (caseMetrics, error) {
	start := time.Now()
	phases, err := exp.PhaseDistributions(trials)
	if err != nil {
		return caseMetrics{}, err
	}
	m := caseMetrics{
		ID:         "PHASES",
		Artifact:   "histograms",
		Title:      fmt.Sprintf("per-phase latency quantiles over %d instrumented checks", trials),
		DurationNS: time.Since(start).Nanoseconds(),
		Passed:     true,
		Phases:     phases,
	}
	for _, p := range phases {
		m.Observations = append(m.Observations, observationMetric{
			Name:  p.Phase,
			Value: fmt.Sprintf("n=%d p50=%dns p90=%dns p99=%dns max=%dns", p.Count, p.P50NS, p.P90NS, p.P99NS, p.MaxNS),
			Match: true,
		})
	}
	return m, nil
}

// writeMetrics writes the per-case metrics as indented JSON to path,
// with "-" meaning the command's standard output.
func writeMetrics(metrics []caseMetrics, path string, stdout io.Writer) error {
	w := stdout
	var f *os.File
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(metrics); err != nil {
		if f != nil {
			f.Close()
		}
		return err
	}
	if f != nil {
		return f.Close()
	}
	return nil
}

func printMarkdown(w io.Writer, r exp.Result) {
	fmt.Fprintf(w, "### %s (%s): %s\n\n", r.ID, r.Artifact, r.Title)
	fmt.Fprintln(w, "| Observation | Measured | Paper | Match |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, o := range r.Observations {
		match := ""
		if o.Claim != "" {
			if o.Match {
				match = "✓"
			} else {
				match = "✗"
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			escapePipes(o.Name), escapePipes(o.Value), escapePipes(o.Claim), match)
	}
	fmt.Fprintln(w)
}

func escapePipes(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
