// Command rlcheck decides relative liveness, relative safety and plain
// satisfaction of a PLTL property over a transition system.
//
// Usage:
//
//	rlcheck -sys server.ts -ltl "G F result" [-check rl|rs|sat|all]
//	rlcheck -sys server.ts -ltl "G F result" -stats
//	rlcheck -sys server.ts -ltl "G F result" -trace-json trace.json
//
// The system file uses the line format "init <state>" plus
// "<from> <action> <to>" lines ("-" reads standard input). With -stats
// a nested phase tree (per-phase durations and automaton sizes, tagged
// with the paper's lemmas) is printed to standard error; -trace-json
// writes the same spans and metrics as JSON ("-" for standard output).
// -cpuprofile and -memprofile write pprof profiles. Exit status:
// 0 when every requested check holds, 1 when one fails, 2 on errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"relive"
	"relive/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rlcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sysPath := fs.String("sys", "", "transition system file (- for stdin)")
	ltlText := fs.String("ltl", "", "PLTL property, e.g. \"G F result\" or \"□◇result\"")
	omegaText := fs.String("omega", "", "ω-regular property \"U ( V ) ^w\" instead of -ltl")
	check := fs.String("check", "all", "which check to run: rl, rs, sat, or all")
	mode := fs.String("mode", "direct", "direct (Section 4 checks), fair-abstract (all fair runs satisfy -ltl through -hom), or statistical (sampled confidence-interval verdict)")
	homSpec := fs.String("hom", "", "abstracting homomorphism \"a=>x, b=>\" (fair-abstract mode)")
	fairnessFlag := fs.String("fairness", "strong", "fairness notion for fair-abstract mode: strong or weak")
	seed := fs.Int64("seed", 0, "statistical mode: sampling seed (same seed + budget replays byte-identically)")
	samples := fs.Int("samples", 0, "statistical mode: number of random walks (0 = default 400)")
	steps := fs.Int("steps", 0, "statistical mode: steps per walk (0 = default 256)")
	confidence := fs.Float64("confidence", 0, "statistical mode: two-sided CI level (0 = default 0.99)")
	quiet := fs.Bool("q", false, "only set the exit status, print nothing")
	jsonOut := fs.Bool("json", false, "emit all three verdicts as JSON")
	stats := fs.Bool("stats", false, "print the phase tree (durations, automaton sizes) to stderr")
	traceJSON := fs.String("trace-json", "", "write the span/metric trace as JSON to this file (- for stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sysPath == "" || (*ltlText == "") == (*omegaText == "") {
		fmt.Fprintln(stderr, "rlcheck: -sys and exactly one of -ltl / -omega are required")
		fs.Usage()
		return 2
	}
	stopProf, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			code = 2
		}
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			code = 2
		}
	}()

	var trace *relive.Trace
	checker := relive.With()
	if *stats || *traceJSON != "" {
		trace = relive.NewTrace()
		// Stamp a fresh trace ID so the exported dump is self-contained
		// and joinable with rlserve's /debug/checks/{traceID} format.
		trace.SetTraceID(obs.NewTraceID())
		checker = relive.With(relive.WithRecorder(trace))
	}
	defer func() {
		if trace == nil {
			return
		}
		if *stats {
			if err := trace.WriteTree(stderr); err != nil {
				fmt.Fprintf(stderr, "rlcheck: %v\n", err)
				code = 2
			}
		}
		if *traceJSON != "" {
			if err := writeTrace(trace, *traceJSON, stdout); err != nil {
				fmt.Fprintf(stderr, "rlcheck: %v\n", err)
				code = 2
			}
		}
	}()

	sys, err := readSystem(*sysPath)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	switch *mode {
	case "direct":
	case "fair-abstract":
		if *ltlText == "" || *homSpec == "" {
			fmt.Fprintln(stderr, "rlcheck: -mode fair-abstract requires -ltl and -hom")
			return 2
		}
		return runFairAbstract(checker, sys, *ltlText, *homSpec, *fairnessFlag, *jsonOut, *quiet, stdout, stderr)
	case "statistical":
		sopts := []relive.Option{
			relive.WithSeed(*seed),
			relive.WithSampleBudget(*samples, *steps),
			relive.WithConfidence(*confidence),
		}
		if trace != nil {
			sopts = append(sopts, relive.WithRecorder(trace))
		}
		return runStatistical(relive.With(sopts...), sys, *ltlText, *omegaText, *jsonOut, *quiet, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "rlcheck: unknown -mode %q\n", *mode)
		return 2
	}
	var property relive.Property
	if *ltlText != "" {
		f, err := relive.ParseLTL(*ltlText)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		property = relive.PropertyFromLTL(f, nil)
	} else {
		b, err := relive.ParseOmegaRegex(sys.Alphabet(), *omegaText)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		property = relive.PropertyFromBuchi(b)
	}
	if *jsonOut {
		report, err := checker.CheckAll(context.Background(), sys, property)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		if report.Satisfied {
			return 0
		}
		return 1
	}

	allHold := true
	report := func(name, verdict string, holds bool, witness string) {
		allHold = allHold && holds
		if *quiet {
			return
		}
		fmt.Fprintf(stdout, "%-18s %s", name, verdict)
		if !holds && witness != "" {
			fmt.Fprintf(stdout, "  (witness: %s)", witness)
		}
		fmt.Fprintln(stdout)
	}
	verdict := func(holds bool) string {
		if holds {
			return "HOLDS"
		}
		return "FAILS"
	}

	runRL := *check == "rl" || *check == "all"
	runRS := *check == "rs" || *check == "all"
	runSat := *check == "sat" || *check == "all"
	if !runRL && !runRS && !runSat {
		fmt.Fprintf(stderr, "rlcheck: unknown -check %q\n", *check)
		return 2
	}
	if runRL {
		res, err := checker.CheckRelativeLiveness(context.Background(), sys, property)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		report("relative liveness", verdict(res.Holds), res.Holds,
			res.BadPrefix.String(sys.Alphabet()))
	}
	if runRS {
		res, err := checker.CheckRelativeSafety(context.Background(), sys, property)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		witness := ""
		if !res.Holds {
			witness = res.Violation.String(sys.Alphabet())
		}
		report("relative safety", verdict(res.Holds), res.Holds, witness)
	}
	if runSat {
		res, err := checker.CheckSatisfies(context.Background(), sys, property)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		witness := ""
		if !res.Holds {
			witness = res.Counterexample.String(sys.Alphabet())
		}
		report("satisfaction", verdict(res.Holds), res.Holds, witness)
	}
	if allHold {
		return 0
	}
	return 1
}

// runFairAbstract decides "all fair runs satisfy the property through
// the homomorphism" — the fairness-within-abstraction verdict class.
func runFairAbstract(checker *relive.Checker, sys *relive.System, ltlText, homSpec, fairnessName string, jsonOut, quiet bool, stdout, stderr io.Writer) int {
	f, err := relive.ParseLTL(ltlText)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	h, err := relive.ParseHom(sys.Alphabet(), homSpec)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	kind, err := relive.ParseFairnessKind(fairnessName)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	report, err := checker.CheckFairAbstract(context.Background(), sys, h, kind, f)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
	} else if !quiet {
		if report.Holds {
			suffix := ""
			if report.Vacuous {
				suffix = "  (vacuous: no infinite behavior)"
			}
			fmt.Fprintf(stdout, "%-18s HOLDS%s\n", "fair-abstract", suffix)
		} else {
			fmt.Fprintf(stdout, "%-18s FAILS  (violating fair run: %s (%s)^w -> abstract %s (%s)^w)\n",
				"fair-abstract",
				joinWords(report.ViolationPrefix), joinWords(report.ViolationLoop),
				joinWords(report.AbstractPrefix), joinWords(report.AbstractLoop))
		}
	}
	if report.Holds {
		return 0
	}
	return 1
}

// runStatistical runs the sampling engine: a confidence-interval
// verdict ("holds" is CI-bounded, never exact; "fails" carries a sound
// sampled counterexample; "inconclusive" means no walk settled within
// the step budget). Exit status: 0 holds, 1 fails or inconclusive.
func runStatistical(checker *relive.Checker, sys *relive.System, ltlText, omegaText string, jsonOut, quiet bool, stdout, stderr io.Writer) int {
	var property relive.Property
	if ltlText != "" {
		f, err := relive.ParseLTL(ltlText)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		property = relive.PropertyFromLTL(f, nil)
	} else {
		b, err := relive.ParseOmegaRegex(sys.Alphabet(), omegaText)
		if err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
		property = relive.PropertyFromBuchi(b)
	}
	report, err := checker.CheckStatistical(context.Background(), sys, property)
	if err != nil {
		fmt.Fprintf(stderr, "rlcheck: %v\n", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "rlcheck: %v\n", err)
			return 2
		}
	} else if !quiet {
		switch report.Verdict {
		case relive.StatVerdictHolds:
			suffix := ""
			if report.Vacuous {
				suffix = "  (vacuous: no infinite behavior)"
			} else {
				suffix = fmt.Sprintf("  (statistical: %d/%d samples, P >= %.4f at %.0f%% confidence)",
					report.Hits, report.Settled, report.CILow, report.Confidence*100)
			}
			fmt.Fprintf(stdout, "%-18s HOLDS%s\n", "statistical", suffix)
		case relive.StatVerdictFails:
			fmt.Fprintf(stdout, "%-18s FAILS  (sampled counterexample: %s (%s)^w; estimate %.4f in [%.4f, %.4f])\n",
				"statistical",
				joinWords(report.Counterexample), joinWords(report.CounterexampleLoop),
				report.Estimate, report.CILow, report.CIHigh)
		default:
			fmt.Fprintf(stdout, "%-18s INCONCLUSIVE  (no walk settled within %d steps; raise -steps)\n",
				"statistical", report.Steps)
		}
	}
	if report.Holds {
		return 0
	}
	return 1
}

func joinWords(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += n
	}
	return out
}

// writeTrace dumps the trace as JSON to path, with "-" meaning the
// command's standard output.
func writeTrace(trace *relive.Trace, path string, stdout io.Writer) error {
	if path == "-" {
		return trace.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSystem(path string) (*relive.System, error) {
	if path == "-" {
		return relive.ParseSystem(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relive.ParseSystem(f)
}
