// Command rlsim simulates a transition system under a strongly fair or
// uniformly random scheduler and, optionally, monitors a PLTL property:
// with -ltl it estimates, with the statistical engine, the probability
// that an execution satisfies the property (the Section 9
// probability-1 reading of relative liveness).
//
// Usage:
//
//	rlsim -sys server.ts -steps 40                 # print a fair trace
//	rlsim -sys server.ts -sched random -seed 7     # a random trace
//	rlsim -sys server.ts -ltl "G F result" -runs 200
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"relive"
	"relive/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rlsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sysPath := fs.String("sys", "", "transition system file (- for stdin)")
	sched := fs.String("sched", "fair", "scheduler: fair (strongly fair) or random")
	steps := fs.Int("steps", 40, "steps per execution")
	seed := fs.Int64("seed", 1, "random scheduler seed")
	ltlText := fs.String("ltl", "", "property to estimate P(satisfied) for (implies -sched random)")
	runs := fs.Int("runs", 200, "number of sampled executions with -ltl")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sysPath == "" {
		fmt.Fprintln(stderr, "rlsim: -sys is required")
		fs.Usage()
		return 2
	}
	if *steps < 0 {
		fmt.Fprintln(stderr, "rlsim: -steps must not be negative")
		return 2
	}
	if *ltlText != "" && (*runs < 1 || *steps < 1) {
		fmt.Fprintln(stderr, "rlsim: -ltl needs -runs and -steps of at least 1")
		return 2
	}
	stopProf, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "rlsim: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "rlsim: %v\n", err)
			code = 2
		}
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "rlsim: %v\n", err)
			code = 2
		}
	}()
	sys, err := readSystem(*sysPath)
	if err != nil {
		fmt.Fprintf(stderr, "rlsim: %v\n", err)
		return 2
	}

	if *ltlText != "" {
		prop, err := relive.ParseLTL(*ltlText)
		if err != nil {
			fmt.Fprintf(stderr, "rlsim: %v\n", err)
			return 2
		}
		checker := relive.With(relive.WithSeed(*seed), relive.WithSampleBudget(*runs, *steps))
		rep, err := checker.CheckStatistical(context.Background(), sys, relive.PropertyFromLTL(prop, nil))
		if err != nil {
			fmt.Fprintf(stderr, "rlsim: %v\n", err)
			return 2
		}
		switch {
		case rep.Vacuous:
			fmt.Fprintln(stderr, "rlsim: the system has no infinite run to sample")
			return 2
		case rep.Verdict == relive.StatVerdictInconclusive:
			fmt.Fprintf(stderr, "rlsim: no run settled into a bottom SCC within %d steps\n", *steps)
			return 2
		}
		fmt.Fprintf(stdout, "P(%s) ≈ %.3f over %d runs × %d steps\n", prop, rep.Estimate, *runs, *steps)
		return 0
	}

	switch *sched {
	case "fair":
		s, err := relive.NewFairScheduler(sys)
		if err != nil {
			fmt.Fprintf(stderr, "rlsim: %v\n", err)
			return 2
		}
		printTrace(stdout, sys, traceActions(sys, s.Trace(*steps)))
	case "random":
		printTrace(stdout, sys, randomTrace(sys, *seed, *steps))
	default:
		fmt.Fprintf(stderr, "rlsim: unknown scheduler %q\n", *sched)
		return 2
	}
	return 0
}

// randomTrace returns the actions of a run of at most steps steps under
// the uniform random scheduler: each step takes one of the current
// state's transitions, in Edges order, with rng.Intn, and the run stops
// early at a dead end.
func randomTrace(sys *relive.System, seed int64, steps int) []string {
	out := make([][]relive.Edge, sys.NumStates())
	for _, e := range sys.Edges() {
		out[e.From] = append(out[e.From], e)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, steps)
	for cur := sys.Initial(); len(names) < steps && len(out[cur]) > 0; {
		e := out[cur][rng.Intn(len(out[cur]))]
		names = append(names, sys.Alphabet().Name(e.Sym))
		cur = e.To
	}
	return names
}

func traceActions(sys *relive.System, edges []relive.Edge) []string {
	names := make([]string, len(edges))
	for i, e := range edges {
		names[i] = sys.Alphabet().Name(e.Sym)
	}
	return names
}

func printTrace(w io.Writer, sys *relive.System, names []string) {
	fmt.Fprintf(w, "initial: %s\n", sys.StateName(sys.Initial()))
	for i, n := range names {
		fmt.Fprintf(w, "%4d  %s\n", i+1, n)
	}
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
