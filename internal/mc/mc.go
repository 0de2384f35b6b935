// Package mc is the statistical relative-liveness engine: parallel
// random-walk sampling of a transition system, bottom-SCC lasso
// detection with on-the-fly property evaluation, and
// confidence-interval verdicts (Wilson and Clopper–Pearson). Run first
// visits every state once, to compile the system into flat successor
// arrays and index its nontrivial bottom SCCs with internal/graph's
// Tarjan; each walk then ends as soon as its outcome is fixed. It
// realizes the paper's Section 9 outlook —
// relative liveness "informally says: almost all computations satisfy
// the property" — as a sampling engine: under the uniform random
// scheduler a run of a finite-state system almost surely falls into a
// bottom SCC and sweeps it strongly fairly, so the frequency with which
// sampled runs satisfy P estimates the probability that a random run
// does, whose exact counterpart is "all strongly fair runs satisfy P"
// (core.AllFairRunsSatisfy). Verdicts are confidence intervals, never
// claimed exact; sampled counterexamples are genuine behaviors of the
// system and therefore sound.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"relive/internal/alphabet"
	"relive/internal/graph"
	"relive/internal/interrupt"
	"relive/internal/ts"
	"relive/internal/word"
)

// Config parameterizes one sampling run. The zero value is not valid;
// use Defaulted (or fill every field) before Run.
type Config struct {
	// Seed drives every random choice. Each sample index derives its
	// own splitmix64 stream from (Seed, index), so the run's outcome is
	// a deterministic function of (Seed, Samples, Steps, Confidence)
	// alone — bit-identical for any Workers value.
	Seed int64
	// Samples is the number of independent random walks.
	Samples int
	// Steps bounds the length of each walk: the states it visits in
	// its second half must be exactly one bottom SCC for the sample to
	// count, and the walk stops as soon as that is decided.
	Steps int
	// Confidence is the two-sided level of the reported interval,
	// e.g. 0.99.
	Confidence float64
	// Workers bounds sampling parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// Default sampling budget: enough walks for a meaningful interval at
// 0.99 (400 all-hit samples put the Clopper–Pearson lower bound above
// 0.986) on graphs whose bottom SCCs are reached within a few hundred
// steps.
const (
	DefaultSamples    = 400
	DefaultSteps      = 256
	DefaultConfidence = 0.99
)

// Defaulted fills unset (zero or out-of-range) fields with the package
// defaults and returns the result.
func (c Config) Defaulted() Config {
	if c.Samples <= 0 {
		c.Samples = DefaultSamples
	}
	if c.Steps <= 0 {
		c.Steps = DefaultSteps
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = DefaultConfidence
	}
	return c
}

// Counterexample is a sampled run violating the property: a genuine
// behavior of the system (the walk actually happened in it), so
// a "fails" verdict is sound, not statistical.
type Counterexample struct {
	// Index is the sample that produced the lasso — the lowest-index
	// violating sample, independent of worker scheduling.
	Index int
	// Lasso is the violating behavior: sampled prefix · fair covering
	// cycle of the bottom SCC the walk settled in.
	Lasso word.Lasso
}

// Result aggregates one sampling run.
type Result struct {
	// Samples is the number of walks taken, Settled how many closed a
	// bottom-SCC lasso within the step budget, Hits how many settled
	// samples satisfied the property.
	Samples, Settled, Hits int
	// Estimate is Hits/Settled (0 when nothing settled).
	Estimate float64
	// Low, High bound the satisfaction probability at the configured
	// confidence (Clopper–Pearson over the settled samples).
	Low, High float64
	// Counterexample is the lowest-index settled violating sample, nil
	// when every settled sample hit.
	Counterexample *Counterexample
	// StepsWalked is the number of steps the walks took. A walk stops
	// as soon as its outcome is fixed, so this is at most
	// Samples × Steps.
	StepsWalked int64
}

// Run samples cfg.Samples random walks of sys, detects bottom-SCC
// lassos, evaluates each settled lasso, and returns counts, the
// Clopper–Pearson interval, and the first violating sample. Walk a
// *trimmed* system (core trims before sampling): every state then has
// a successor, so no walk dies at a dead end, and trimming preserves
// behaviors, so every sampled lasso is a behavior of the original
// system. Before sampling Run visits every state once, to compile sys
// and index its bottom SCCs, the only places a walk can settle. Run
// calls newEval once per worker, before the workers start, and each
// worker evaluates its settled lassos with the evaluator it got, so an
// evaluator may own scratch that no other goroutine touches.
// Evaluators must be deterministic, and must not retain the lasso they
// are handed: the lasso's slices are reused by the next walk. Run's
// result is then a deterministic function of (sys, Seed, Samples,
// Steps, Confidence), independent of Workers and scheduling. The
// context is polled cooperatively inside every walk.
func Run(ctx context.Context, sys *ts.System, cfg Config, newEval func() func(word.Lasso) (bool, error)) (*Result, error) {
	cfg = cfg.Defaulted()
	if sys.NumStates() == 0 {
		return nil, fmt.Errorf("mc: system has no states")
	}
	if sys.Initial() < 0 {
		return nil, fmt.Errorf("mc: system has no initial state")
	}
	g := compile(sys)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Samples {
		workers = cfg.Samples
	}
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range tallies {
		eval := newEval()
		go func(tl *tally) {
			defer wg.Done()
			wk := newWalker(g, cfg.Steps)
			defer func() { tl.walked = wk.walked }()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Samples {
					return
				}
				rng := newSplitMix(cfg.Seed, i)
				l, settled, err := wk.walk(ctx, &rng)
				if err != nil {
					tl.err, tl.errAt = err, i
					return
				}
				if !settled {
					continue
				}
				hit, err := eval(l)
				if err != nil {
					tl.err, tl.errAt = fmt.Errorf("mc: evaluating sample %d: %w", i, err), i
					return
				}
				tl.settled++
				if hit {
					tl.hits++
				} else if tl.cex == nil {
					tl.cex = &Counterexample{Index: i, Lasso: word.Lasso{Prefix: l.Prefix.Clone(), Loop: l.Loop.Clone()}}
				}
			}
		}(&tallies[w])
	}
	wg.Wait()
	// Each worker claims indices in increasing order, so its first
	// violation and its error are its lowest-index ones, and the merged
	// result is independent of which worker ran which sample. A
	// deterministic eval error outranks the cancellation that tore other
	// workers down.
	var evalErr *tally
	var ctxErr error
	res := &Result{Samples: cfg.Samples}
	for w := range tallies {
		tl := &tallies[w]
		res.Settled += tl.settled
		res.Hits += tl.hits
		res.StepsWalked += tl.walked
		if tl.cex != nil && (res.Counterexample == nil || tl.cex.Index < res.Counterexample.Index) {
			res.Counterexample = tl.cex
		}
		switch {
		case tl.err == nil:
		case isCtxErr(tl.err):
			ctxErr = tl.err
		case evalErr == nil || tl.errAt < evalErr.errAt:
			evalErr = tl
		}
	}
	if evalErr != nil {
		return nil, evalErr.err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	if res.Settled > 0 {
		res.Estimate = float64(res.Hits) / float64(res.Settled)
	}
	res.Low, res.High = ClopperPearson(res.Hits, res.Settled, cfg.Confidence)
	return res, nil
}

// tally is what one worker keeps of its walks: counts, its first
// violating sample, and the error that stopped it (with its sample
// index), so a run holds O(workers) results instead of one per sample.
type tally struct {
	settled, hits int
	walked        int64
	cex           *Counterexample
	err           error
	errAt         int
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// walkGraph is a system compiled for walking: its transitions in CSR
// form, in sys.Edges() order (the i-th transition of s has the dense id
// Off[s]+i, target Dst[id] and action sym[id]), and the index of its
// nontrivial bottom SCCs, the only places a walk can settle. Run builds
// it once; the workers only read it.
type walkGraph struct {
	graph.CSR
	sym    []alphabet.Symbol
	start  int
	bottom []int32 // bottom[s] indexes comps, or is -1 outside every nontrivial bottom SCC
	comps  [][]int
}

// compile copies sys's transitions into CSR form and finds the
// nontrivial bottom SCCs reachable from its initial state.
func compile(sys *ts.System) *walkGraph {
	g := &walkGraph{start: int(sys.Initial()), bottom: make([]int32, sys.NumStates())}
	g.CSR, g.sym = sys.CSR()
	for s := range g.bottom {
		g.bottom[s] = -1
	}
	for _, c := range graph.BottomSCCs(g.CSR, []int{g.start}) {
		if graph.IsTrivialSCC(c, g.CSR) {
			continue
		}
		for _, s := range c {
			g.bottom[s] = int32(len(g.comps))
		}
		g.comps = append(g.comps, c)
	}
	return g
}

// walker is one worker's scratch, reused by every walk it takes: the
// prefix buffer, the loop buffer, epoch-stamped state and transition
// marks, and the sweep's search queue and path. A walk that does not
// settle allocates nothing.
type walker struct {
	g      *walkGraph
	steps  int
	prefix word.Word
	loop   word.Word
	seen   marks // states
	swept  marks // transitions, by dense id
	queue  []bfsEntry
	path   []int32
	tick   interrupt.Tick
	walked int64
}

func newWalker(g *walkGraph, steps int) *walker {
	return &walker{
		g:      g,
		steps:  steps,
		prefix: make(word.Word, steps/2),
		seen:   marks{at: make([]uint32, g.NumVertices())},
		swept:  marks{at: make([]uint32, len(g.Dst))},
	}
}

// walk takes one uniform random walk of at most steps steps from the
// start state. The walk settles when the states it visits in its second
// half (from step steps/2 on) are exactly a bottom SCC B, which it
// decides as soon as the outcome is fixed: a walk outside every
// nontrivial bottom SCC at step steps/2 never settles, and a walk inside
// B stops once it has visited every state of B (settled) or once too few
// steps remain to do so (unsettled). A settled walk yields the behavior
// "prefix · fair covering cycle of B^ω" as a view into the walker's
// buffers, valid until the next walk. A walk that dies at a dead end
// never settles; on the trimmed systems core hands the engine, dead ends
// cannot occur.
func (w *walker) walk(ctx context.Context, rng *splitMix) (word.Lasso, bool, error) {
	if len(w.prefix) == 0 {
		return word.Lasso{}, false, nil
	}
	g := w.g
	cur := g.start
	for i := range w.prefix {
		if err := w.tick.Poll(ctx); err != nil {
			return word.Lasso{}, false, err
		}
		lo, hi := g.Off[cur], g.Off[cur+1]
		if lo == hi {
			return word.Lasso{}, false, nil
		}
		e := lo + int32(rng.intn(int(hi-lo)))
		w.prefix[i] = g.sym[e]
		cur = int(g.Dst[e])
		w.walked++
	}
	b := g.bottom[cur]
	if b < 0 {
		return word.Lasso{}, false, nil
	}
	comp := g.comps[b]
	start := cur
	w.seen.clear()
	w.seen.add(cur)
	for covered, left := 1, w.steps-len(w.prefix); covered < len(comp); left-- {
		if left < len(comp)-covered {
			return word.Lasso{}, false, nil
		}
		if err := w.tick.Poll(ctx); err != nil {
			return word.Lasso{}, false, err
		}
		lo := g.Off[cur]
		cur = int(g.Dst[lo+int32(rng.intn(int(g.Off[cur+1]-lo)))])
		w.walked++
		if w.seen.add(cur) {
			covered++
		}
	}
	loop, ok := w.coveringCycle(start, comp)
	if !ok {
		return word.Lasso{}, false, nil
	}
	return word.Lasso{Prefix: w.prefix, Loop: loop}, true, nil
}

// coveringCycle returns the action word of a cycle from start that
// traverses every transition of start's bottom SCC comp — the canonical
// strongly fair sweep a uniform random run performs infinitely often
// almost surely. Deterministic: the sweep repeatedly takes the
// BFS-shortest path (successors in index order) to the next untraversed
// transition, then the shortest path back to start. The word is the
// walker's loop buffer.
func (w *walker) coveringCycle(start int, comp []int) (word.Word, bool) {
	g := w.g
	w.swept.clear()
	remaining := 0
	for _, s := range comp {
		remaining += int(g.Off[s+1] - g.Off[s])
	}
	out := w.loop[:0]
	cur := start
	for remaining > 0 {
		path := w.shortestPath(cur, func(e int32) bool { return !w.swept.has(int(e)) })
		if path == nil {
			return nil, false // cannot happen in a bottom SCC
		}
		for _, e := range path {
			out = append(out, g.sym[e])
			if w.swept.add(int(e)) {
				remaining--
			}
			cur = int(g.Dst[e])
		}
	}
	if cur != start {
		path := w.shortestPath(cur, func(e int32) bool { return int(g.Dst[e]) == start })
		if path == nil {
			return nil, false
		}
		for _, e := range path {
			out = append(out, g.sym[e])
		}
	}
	w.loop = out
	return out, true
}

type bfsEntry struct {
	state  int
	parent int   // queue index of the predecessor, -1 at the root
	edge   int32 // transition from the predecessor
}

// shortestPath returns the transitions of a shortest walk from cur
// whose last transition satisfies hit, scanning successors in index
// order, or nil when there is none. The slice is reused by the next
// call.
func (w *walker) shortestPath(cur int, hit func(e int32) bool) []int32 {
	g := w.g
	w.seen.clear()
	w.seen.add(cur)
	w.queue = append(w.queue[:0], bfsEntry{state: cur, parent: -1})
	for qi := 0; qi < len(w.queue); qi++ {
		st := w.queue[qi].state
		for e := g.Off[st]; e < g.Off[st+1]; e++ {
			if hit(e) {
				w.path = append(w.path[:0], e)
				for j := qi; w.queue[j].parent != -1; j = w.queue[j].parent {
					w.path = append(w.path, w.queue[j].edge)
				}
				slices.Reverse(w.path)
				return w.path
			}
			if to := int(g.Dst[e]); w.seen.add(to) {
				w.queue = append(w.queue, bfsEntry{state: to, parent: qi, edge: e})
			}
		}
	}
	return nil
}

// marks is a set over [0, len(at)) that clear empties in O(1) by
// moving to a fresh epoch.
type marks struct {
	at    []uint32
	epoch uint32
}

func (m *marks) clear() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.at)
		m.epoch = 1
	}
}

// add inserts i and reports whether it was absent.
func (m *marks) add(i int) bool {
	if m.at[i] == m.epoch {
		return false
	}
	m.at[i] = m.epoch
	return true
}

func (m *marks) has(i int) bool { return m.at[i] == m.epoch }

// splitMix is the per-sample PRNG: a splitmix64 stream whose state is
// derived from (seed, sample index) alone, so sample i's walk is the
// same no matter which worker takes it.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64, index int) splitMix {
	// Decorrelate neighboring indices by running the index through one
	// splitmix round before mixing with the seed.
	x := (uint64(index) + 1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return splitMix{s: uint64(seed) ^ (x ^ (x >> 31))}
}

func (p *splitMix) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n) by the multiply-shift reduction
// (the ~n/2⁶⁴ bias is irrelevant against sampling noise; determinism is
// what matters).
func (p *splitMix) intn(n int) int {
	hi, _ := bits.Mul64(p.next(), uint64(n))
	return int(hi)
}
