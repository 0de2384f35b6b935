package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compare judges a change against its parent from two result files
// (rlperf -out records), following the choosing-metrics rule for small
// sandboxes: the i-th runs of a workload on each side form a pair (the
// runner alternates which side goes first); a gain needs at least ten
// pairs, the change winning nine tenths of them, and a median gap wider
// than the parent's interquartile range; a metric whose run-to-run
// spread exceeds its bound is unresolved rather than unchanged, unless
// every change run beats every parent run. It reports whether some
// end-to-end metric regressed past its bound.
func compare(out io.Writer, benchmarkPath, parentPath, changePath string) (bool, error) {
	def, err := readBenchmark(benchmarkPath)
	if err != nil {
		return false, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	for _, wl := range def.Workloads {
		fmt.Fprintf(tw, "== %s\n", wl.Name)
		fmt.Fprintln(tw, "metric\tparent median [q1, q3]\tchange median [q1, q3]\tpairs won\tverdict")
		for _, d := range def.EndToEnd {
			pv := values(parent, wl.Name, false, d.Name)
			cv := values(change, wl.Name, false, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(d, pv, cv)
			if v.regressed {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%s\n", d.Name, summary(pv), summary(cv), v.wins, v.pairs, v.verdict)
		}
		for _, d := range def.PerLayer {
			pv := values(parent, wl.Name, true, d.Name)
			cv := values(change, wl.Name, true, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t\tper layer, no bound\n", d.Name, summary(pv), summary(cv))
		}
	}
	return regressed, tw.Flush()
}

type judgement struct {
	wins, pairs int
	verdict     string
	regressed   bool
}

// judge applies the comparison rule to one metric's runs.
func judge(d metricDef, parent, change []float64) judgement {
	sign := 1.0 // positive when the change is better
	if d.Better == "lower" {
		sign = -1
	}
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			j.wins++
		}
	}
	pm, cm := median(parent), median(change)
	gain := sign * (cm - pm)
	iqr := spreadOf(parent)
	rel := math.Max(relSpread(parent), relSpread(change))
	switch {
	case j.pairs >= 10 && float64(j.wins) >= 0.9*float64(j.pairs) && gain > iqr:
		j.verdict = "gain"
	case rel > d.Bound && allBetter(sign, parent, change):
		j.verdict = "better in every run (spread above bound)"
	case rel > d.Bound:
		j.verdict = fmt.Sprintf("unresolved: spread %.1f%% > bound %.0f%%", 100*rel, 100*d.Bound)
	case -gain > d.Bound*math.Abs(pm):
		j.verdict = fmt.Sprintf("REGRESSION: %+.1f%% past the %.0f%% bound", 100*-gain/math.Abs(pm), 100*d.Bound)
		j.regressed = true
	default:
		j.verdict = fmt.Sprintf("within bound (%+.1f%%)", 100*-gain/math.Abs(pm))
	}
	return j
}

func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return spreadOf(xs) / math.Abs(m)
}

func allBetter(sign float64, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}

func summary(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.4g", median(xs))
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// values lists one metric over a workload's runs in file order.
func values(recs []record, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
