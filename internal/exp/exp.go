// Package exp is the experiment harness reproducing every figure and
// in-text claim of Nitsche & Wolper (PODC'97), plus the scaling studies
// that stand in for the paper's PSPACE-completeness result (the paper
// is an extended abstract with no empirical evaluation; its figures and
// worked examples are the artifacts to reproduce — see DESIGN.md §3).
//
// Each experiment returns a Result with named observations and the
// paper's corresponding claim, so cmd/rlbench can print a
// paper-vs-measured table and the test suite can assert every row.
package exp

import (
	"fmt"
	"strings"
)

// Observation is a single measured fact.
type Observation struct {
	Name  string
	Value string
	// Claim is what the paper states, when it states anything; empty for
	// purely informational rows.
	Claim string
	// Match reports whether Value is consistent with Claim; true for
	// informational rows.
	Match bool
}

// Result is the outcome of one experiment.
type Result struct {
	ID           string // e.g. "E2"
	Artifact     string // e.g. "Figure 2"
	Title        string
	Observations []Observation
}

// Passed reports whether every observation matched its claim.
func (r Result) Passed() bool {
	for _, o := range r.Observations {
		if !o.Match {
			return false
		}
	}
	return true
}

// String renders the result as an aligned table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %s\n", r.ID, r.Artifact, r.Title)
	nameW, valueW := 0, 0
	for _, o := range r.Observations {
		if len(o.Name) > nameW {
			nameW = len(o.Name)
		}
		if len(o.Value) > valueW {
			valueW = len(o.Value)
		}
	}
	for _, o := range r.Observations {
		status := "  "
		if o.Claim != "" {
			if o.Match {
				status = "OK"
			} else {
				status = "!!"
			}
		}
		fmt.Fprintf(&b, "  [%s] %-*s  %-*s", status, nameW, o.Name, valueW, o.Value)
		if o.Claim != "" {
			fmt.Fprintf(&b, "  (paper: %s)", o.Claim)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// info records an informational observation.
func info(name, value string) Observation {
	return Observation{Name: name, Value: value, Match: true}
}

// claim records an observation checked against a paper claim.
func claim(name, value, paperClaim string, match bool) Observation {
	return Observation{Name: name, Value: value, Claim: paperClaim, Match: match}
}

// claimBool is claim for boolean observations with an expected value.
func claimBool(name string, got, want bool, paperClaim string) Observation {
	return claim(name, fmt.Sprintf("%v", got), paperClaim, got == want)
}

// Runner executes an experiment.
type Runner func() (Result, error)

// Experiment is one registry entry: an id and its runner. Experiments
// are self-contained (each builds its own nets, systems, and alphabets)
// and safe to run concurrently (rlbench -parallel).
type Experiment struct {
	ID  string
	Run Runner
}

// All returns the registry of experiments in order.
func All() []Experiment {
	reg := []Experiment{
		{"E1", E1Fig1Reachability},
		{"E2", E2Fig2RelativeLiveness},
		{"E3", E3Fig3NotRelativeLiveness},
		{"E4", E4Fig4Abstraction},
		{"E5", E5Simplicity},
		{"E6", E6RbarTransform},
		{"E7", E7FairImplementation},
		{"E8", func() (Result, error) { return E8Scaling(DefaultScalingSizes()) }},
		{"E9", func() (Result, error) { return E9ConjunctionTheorem(200) }},
		{"E10", func() (Result, error) { return E10MachineClosure(200) }},
		{"E11", func() (Result, error) { return E11Compositional(5) }},
		{"E12", E12FeatureInteraction},
		{"E13", E13MonteCarlo},
	}
	return reg
}
