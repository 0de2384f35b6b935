// Command rlabstract applies an abstracting homomorphism to a
// transition system, decides its simplicity (Definition 6.3 of Nitsche
// & Wolper, PODC'97), and optionally runs the full abstraction-based
// relative-liveness verification of Corollary 8.4.
//
// Usage:
//
//	rlabstract -sys server.ts -observe request,result,reject [-ltl "G F result"]
//	rlabstract -sys server.ts -hom "yes=>,no=>,request=>request" -print
//
// With -stats the abstraction pipeline's phase tree (durations,
// automaton sizes, paper tags) is printed to standard error;
// -trace-json writes the same spans as JSON ("-" for standard output);
// -cpuprofile/-memprofile write pprof profiles. Exit status: 0 on a
// positive conclusion (or no -ltl), 1 when the property is refuted or
// the verdict is inconclusive, 2 on errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"relive"
	"relive/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rlabstract", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sysPath := fs.String("sys", "", "transition system file (- for stdin)")
	homSpec := fs.String("hom", "", "homomorphism, e.g. \"a=>x, b=>\" (empty target hides)")
	observe := fs.String("observe", "", "comma-separated actions to keep (hides the rest)")
	ltlText := fs.String("ltl", "", "abstract PLTL property in Σ'-normal form (optional)")
	printAbstract := fs.Bool("print", false, "print the abstract system in text format")
	stats := fs.Bool("stats", false, "print the phase tree (durations, automaton sizes) to stderr")
	traceJSON := fs.String("trace-json", "", "write the span/metric trace as JSON to this file (- for stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sysPath == "" {
		fmt.Fprintln(stderr, "rlabstract: -sys is required")
		fs.Usage()
		return 2
	}
	if (*homSpec == "") == (*observe == "") {
		fmt.Fprintln(stderr, "rlabstract: exactly one of -hom or -observe is required")
		return 2
	}
	stopProf, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "rlabstract: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "rlabstract: %v\n", err)
			code = 2
		}
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "rlabstract: %v\n", err)
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
				fmt.Fprintf(stderr, "rlabstract: %v\n", err)
				code = 2
			}
		}
		if *traceJSON != "" {
			if err := writeTrace(trace, *traceJSON, stdout); err != nil {
				fmt.Fprintf(stderr, "rlabstract: %v\n", err)
				code = 2
			}
		}
	}()
	sys, err := readSystem(*sysPath)
	if err != nil {
		fmt.Fprintf(stderr, "rlabstract: %v\n", err)
		return 2
	}
	var h *relive.Hom
	if *homSpec != "" {
		h, err = relive.ParseHom(sys.Alphabet(), *homSpec)
		if err != nil {
			fmt.Fprintf(stderr, "rlabstract: %v\n", err)
			return 2
		}
	} else {
		keep := strings.Split(*observe, ",")
		for i := range keep {
			keep[i] = strings.TrimSpace(keep[i])
		}
		h = relive.ObserveActions(sys.Alphabet(), keep...)
	}

	if *ltlText == "" {
		// Without a property, report the abstraction and simplicity only.
		eta := relive.MustParseLTL("true")
		report, err := checker.VerifyViaAbstraction(context.Background(), sys, h, eta)
		if err != nil {
			fmt.Fprintf(stderr, "rlabstract: %v\n", err)
			return 2
		}
		printReport(stdout, sys, report, *printAbstract, false)
		return 0
	}
	eta, err := relive.ParseLTL(*ltlText)
	if err != nil {
		fmt.Fprintf(stderr, "rlabstract: %v\n", err)
		return 2
	}
	report, err := checker.VerifyViaAbstraction(context.Background(), sys, h, eta)
	if err != nil {
		fmt.Fprintf(stderr, "rlabstract: %v\n", err)
		return 2
	}
	printReport(stdout, sys, report, *printAbstract, true)
	if report.Conclusion == relive.ConcreteHolds {
		return 0
	}
	return 1
}

func printReport(w io.Writer, sys *relive.System, r *relive.AbstractionReport, printAbstract, withProperty bool) {
	fmt.Fprintf(w, "abstract states:    %d\n", r.Abstract.NumStates())
	if r.ExtendedMaximal {
		fmt.Fprintf(w, "maximal words:      extended with #* (witness %s)\n",
			r.MaximalWitness.String(r.Abstract.Alphabet()))
	}
	fmt.Fprintf(w, "homomorphism:       simple=%v", r.Simple)
	if !r.Simple {
		fmt.Fprintf(w, " (witness %s)", r.SimplicityWitness.String(sys.Alphabet()))
	}
	fmt.Fprintln(w)
	if withProperty {
		fmt.Fprintf(w, "abstract check:     holds=%v", r.AbstractHolds)
		if !r.AbstractHolds {
			fmt.Fprintf(w, " (bad prefix %s)", r.AbstractBadPrefix.String(r.Abstract.Alphabet()))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "transformed R̄(η):   %s\n", r.Transformed)
		fmt.Fprintf(w, "conclusion:         %s\n", r.Conclusion)
	}
	if printAbstract {
		fmt.Fprintln(w, "abstract system:")
		fmt.Fprint(w, r.Abstract.FormatString())
	}
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
