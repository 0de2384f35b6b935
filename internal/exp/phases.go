package exp

import (
	"context"
	"math/rand"

	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/obs"
)

// PhaseQuantiles summarizes the per-run latency distribution of one
// decision-pipeline phase (core.Phases) across the probe corpus.
// Quantiles are bucket upper bounds from obs.Histogram, so they carry
// its ≤ 25% relative error — fine for tracking phase-cost shifts
// across PRs, which is what the BENCH_*.json records are for.
type PhaseQuantiles struct {
	Phase string `json:"phase"`
	Count uint64 `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P90NS int64  `json:"p90_ns"`
	P99NS int64  `json:"p99_ns"`
	MaxNS int64  `json:"max_ns"`
}

// PhaseDistributions runs trials instrumented CheckAll decisions over
// seeded random systems and alternating properties, aggregates every
// span's duration by pipeline phase (trim, property→Büchi, product
// pre-computation, emptiness, sampling — each trial also runs one
// small statistical sweep so the sampled path is probed), and returns
// per-phase p50/p90/p99/max. The corpus is deterministic, so two
// BENCH_*.json files compare the same workload; only the timings vary.
func PhaseDistributions(trials int) ([]PhaseQuantiles, error) {
	rng := rand.New(rand.NewSource(9901))
	ab := gen.Letters(2)
	props := []core.Property{
		core.FromFormula(ltl.MustParse("G F a"), nil),
		core.FromFormula(ltl.MustParse("G (a -> F b)"), nil),
		core.FromFormula(ltl.MustParse("F G b"), nil),
	}
	hists := make(map[string]*obs.Histogram, len(core.Phases))
	for _, ph := range core.Phases {
		hists[ph] = &obs.Histogram{}
	}
	for t := 0; t < trials; t++ {
		sys := randomSystem(rng, ab, 4+rng.Intn(29))
		tr := obs.NewTrace()
		if _, err := core.CheckAll(obs.ContextWithRecorder(context.Background(), tr), core.NewPipelineCells(sys, props[t%len(props)])); err != nil {
			return nil, err
		}
		if _, err := core.CheckStatistical(obs.ContextWithRecorder(context.Background(), tr), core.NewSystemCells(sys), props[t%len(props)],
			core.StatOptions{Seed: int64(t), Samples: 40, Steps: 64, Workers: 1}); err != nil {
			return nil, err
		}
		// Sum each phase's span durations within the run, then observe the
		// per-run total — the same aggregation the serving layer uses for
		// its flight records, so the numbers are directly comparable.
		perPhase := make(map[string]int64, len(core.Phases))
		for _, s := range tr.Spans() {
			if ph := core.PhaseOf(s.Name); ph != "" && s.DurationNS >= 0 {
				perPhase[ph] += s.DurationNS
			}
		}
		for ph, d := range perPhase {
			hists[ph].Observe(d)
		}
	}
	out := make([]PhaseQuantiles, 0, len(core.Phases))
	for _, ph := range core.Phases {
		s := hists[ph].Snapshot()
		out = append(out, PhaseQuantiles{
			Phase: ph,
			Count: s.Count,
			P50NS: s.Quantile(0.50),
			P90NS: s.Quantile(0.90),
			P99NS: s.Quantile(0.99),
			MaxNS: s.Max(),
		})
	}
	return out, nil
}
