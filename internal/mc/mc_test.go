package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"relive/internal/oracle"
	"relive/internal/ts"
	"relive/internal/word"
)

// serverText is the paper's Figure 2 server: from busy both result and
// reject lead back to idle, so □◇result holds on almost all random runs
// but not on the adversarial all-reject schedule.
const serverText = `init idle
idle request busy
busy result idle
busy reject idle
`

// brokenText is the Figure 3 variant where reject enters a sink loop
// that never produces result again.
const brokenText = `init broken
broken request busy
busy result broken
busy reject stuck
stuck no stuck
`

func mustSystem(t *testing.T, text string) *ts.System {
	t.Helper()
	sys, err := ts.ParseString(text)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return sys
}

// loopHas reports whether the lasso's loop contains the named action —
// the □◇ check specialized to the ultimately-periodic words the sampler
// produces.
func loopHas(sys *ts.System, name string) func(word.Lasso) (bool, error) {
	sym := sys.Alphabet().Symbol(name)
	return func(l word.Lasso) (bool, error) {
		for _, s := range l.Loop {
			if s == sym {
				return true, nil
			}
		}
		return false, nil
	}
}

// shared is the evaluator constructor for an evaluator without
// scratch: every worker calls eval itself.
func shared(eval func(word.Lasso) (bool, error)) func() func(word.Lasso) (bool, error) {
	return func() func(word.Lasso) (bool, error) { return eval }
}

// TestRunRejectsSystemsWithoutStart: a system needs states and an
// initial state to be walked.
func TestRunRejectsSystemsWithoutStart(t *testing.T) {
	ab := mustSystem(t, serverText).Alphabet()
	noInitial := ts.New(ab)
	noInitial.AddState("idle")
	noStates := ts.New(ab)
	noStates.SetInitial(0)
	for name, sys := range map[string]*ts.System{"no initial state": noInitial, "no states": noStates} {
		if _, err := Run(context.Background(), sys, Config{Seed: 1}, shared(loopHas(sys, "result"))); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the
// result — counts, interval, and chosen counterexample — is a function
// of (system, Seed, Samples, Steps, Confidence) alone, bit-identical
// for every worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, text := range []string{serverText, brokenText} {
		sys := mustSystem(t, text)
		eval := loopHas(sys, "result")
		var base *Result
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := Config{Seed: 7, Samples: 120, Steps: 64, Confidence: 0.95, Workers: workers}
			res, err := Run(context.Background(), sys, cfg, shared(eval))
			if err != nil {
				t.Fatalf("Run(workers=%d): %v", workers, err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("workers=%d: result diverged:\n got %+v\nwant %+v", workers, res, base)
			}
		}
	}
}

func TestRunVerdictsOnPaperServers(t *testing.T) {
	correct := mustSystem(t, serverText)
	res, err := Run(context.Background(), correct,
		Config{Seed: 1, Samples: 200, Steps: 64}, shared(loopHas(correct, "result")))
	if err != nil {
		t.Fatalf("Run(correct): %v", err)
	}
	if res.Settled == 0 || res.Hits != res.Settled || res.Counterexample != nil {
		t.Fatalf("correct server: want all settled samples to hit, got %+v", res)
	}
	if res.Low <= 0.9 || res.High != 1 {
		t.Fatalf("correct server: implausible interval [%v, %v]", res.Low, res.High)
	}

	broken := mustSystem(t, brokenText)
	res, err = Run(context.Background(), broken,
		Config{Seed: 1, Samples: 200, Steps: 64}, shared(loopHas(broken, "result")))
	if err != nil {
		t.Fatalf("Run(broken): %v", err)
	}
	if res.Counterexample == nil {
		t.Fatalf("broken server: want a counterexample, got %+v", res)
	}
	if !oracle.IsBehavior(broken, res.Counterexample.Lasso) {
		t.Fatalf("counterexample %v is not a behavior of the system",
			res.Counterexample.Lasso.String(broken.Alphabet()))
	}
	if hit, _ := loopHas(broken, "result")(res.Counterexample.Lasso); hit {
		t.Fatalf("counterexample loop contains result: %v",
			res.Counterexample.Lasso.String(broken.Alphabet()))
	}
}

// TestSampledLassosAreBehaviors drives sample directly over many seeds:
// every settled lasso must be a genuine behavior of the system (the
// soundness half of the engine), and its loop must traverse every
// transition of the bottom SCC it settled in (the strong-fairness
// sweep).
func TestSampledLassosAreBehaviors(t *testing.T) {
	sys := mustSystem(t, brokenText)
	settled := 0
	w := newWalker(compile(sys), 64)
	for i := 0; i < 200; i++ {
		rng := newSplitMix(99, i)
		l, ok, err := w.walk(context.Background(), &rng)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !ok {
			continue
		}
		settled++
		if !oracle.IsBehavior(sys, l) {
			t.Fatalf("sample %d: lasso %v is not a behavior", i, l.String(sys.Alphabet()))
		}
	}
	if settled == 0 {
		t.Fatalf("no sample settled in 200 walks of a 4-state system")
	}
}

func TestCoveringCycleSweepsEveryTransition(t *testing.T) {
	g := compile(mustSystem(t, serverText))
	// The whole system is one bottom SCC; sweep from every state.
	n := g.NumVertices()
	if len(g.comps) != 1 || len(g.comps[0]) != n {
		t.Fatalf("bottom SCCs = %v, want one of all %d states", g.comps, n)
	}
	w := newWalker(g, 2)
	for start := 0; start < n; start++ {
		loop, ok := w.coveringCycle(start, g.comps[0])
		if !ok {
			t.Fatalf("coveringCycle from %d failed", start)
		}
		// Replay the loop as transition choices: at each state take the
		// transition with the emitted symbol (the system is
		// deterministic); it must exist, and the replay must traverse
		// every transition and return to start.
		cur := start
		traversed := map[int32]bool{}
		for _, sym := range loop {
			e := g.Off[cur]
			for e < g.Off[cur+1] && g.sym[e] != sym {
				e++
			}
			if e == g.Off[cur+1] {
				t.Fatalf("loop symbol %v not enabled at state %d", sym, cur)
			}
			traversed[e] = true
			cur = int(g.Dst[e])
		}
		if cur != start {
			t.Fatalf("covering cycle from %d ends at %d", start, cur)
		}
		if len(traversed) != len(g.Dst) {
			t.Fatalf("cycle from %d traversed %d/%d transitions", start, len(traversed), len(g.Dst))
		}
	}
}

// TestRunAllocationsIndependentOfSamples: a walk that does not settle
// allocates nothing, so on a system where no walk settles (32-step
// walks cannot visit a 64-state bottom SCC) Run allocates the same for
// 100 samples as for 10,000.
func TestRunAllocationsIndependentOfSamples(t *testing.T) {
	var b strings.Builder
	b.WriteString("init s0\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, "s%d a s%d\ns%d b s%d\n", i, (i+1)%64, i, (3*i+1)%64)
	}
	sys := mustSystem(t, b.String())
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := Run(context.Background(), sys, Config{Seed: 1, Samples: samples, Steps: 32, Workers: 2}, shared(loopHas(sys, "a")))
			if err != nil || res.Settled != 0 {
				t.Fatalf("Run: %+v, %v; want no settled walk", res, err)
			}
		})
	}
	if few, many := allocs(100), allocs(10000); few != many {
		t.Fatalf("Run allocates %v times at 100 samples, %v at 10,000", few, many)
	}
}

func TestRunContextCancellation(t *testing.T) {
	sys := mustSystem(t, serverText)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, sys, Config{Seed: 1, Samples: 50000, Steps: 4096}, shared(loopHas(sys, "result")))
	if err == nil || !isCtxErr(err) {
		t.Fatalf("want context error, got %v", err)
	}
}

// TestRunEvalErrorOutranksCancellation: an eval error is what Run
// reports even when the cancellation it triggers stops the other
// workers with context errors.
func TestRunEvalErrorOutranksCancellation(t *testing.T) {
	sys := mustSystem(t, serverText)
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, sys, Config{Seed: 3, Samples: 5000, Steps: 64, Workers: workers},
			shared(func(word.Lasso) (bool, error) {
				cancel()
				return false, boom
			}))
		cancel()
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the eval error", workers, err)
		}
	}
}

func TestClopperPearsonKnownValues(t *testing.T) {
	// All-hits lower bound is (α/2)^(1/n); zero-hits upper bound is its
	// mirror 1-(α/2)^(1/n).
	for _, n := range []int{10, 100, 400} {
		lo, hi := ClopperPearson(n, n, 0.99)
		want := math.Pow(0.005, 1/float64(n))
		if math.Abs(lo-want) > 1e-9 || hi != 1 {
			t.Fatalf("CP(%d/%d): [%v, %v], want lo≈%v hi=1", n, n, lo, hi, want)
		}
		lo, hi = ClopperPearson(0, n, 0.99)
		if lo != 0 || math.Abs(hi-(1-want)) > 1e-9 {
			t.Fatalf("CP(0/%d): [%v, %v], want lo=0 hi≈%v", n, lo, hi, 1-want)
		}
	}
	// Degenerate inputs.
	if lo, hi := ClopperPearson(0, 0, 0.99); lo != 0 || hi != 1 {
		t.Fatalf("CP(0/0) = [%v, %v], want [0, 1]", lo, hi)
	}
	// Interior case brackets the point estimate and is conservative
	// (contains the Wilson interval).
	lo, hi := ClopperPearson(30, 40, 0.95)
	if !(lo < 0.75 && 0.75 < hi) {
		t.Fatalf("CP(30/40) = [%v, %v] does not bracket 0.75", lo, hi)
	}
	wlo, whi := Wilson(30, 40, 0.95)
	if lo > wlo+1e-12 || hi < whi-1e-12 {
		t.Fatalf("CP [%v, %v] narrower than Wilson [%v, %v]", lo, hi, wlo, whi)
	}
}

// TestAllHitsLowerBoundMonotone pins the honest form of "more samples ⇒
// tighter interval": in the all-hits regime the Clopper–Pearson lower
// bound (α/2)^{1/n} strictly increases with n.
func TestAllHitsLowerBoundMonotone(t *testing.T) {
	prev := -1.0
	for _, n := range []int{1, 2, 5, 10, 50, 100, 400, 1000} {
		lo, _ := ClopperPearson(n, n, 0.99)
		if lo <= prev {
			t.Fatalf("all-hits lower bound not increasing at n=%d: %v <= %v", n, lo, prev)
		}
		prev = lo
	}
}

func TestWilsonSanity(t *testing.T) {
	if lo, hi := Wilson(0, 0, 0.99); lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0/0) = [%v, %v], want [0, 1]", lo, hi)
	}
	lo, hi := Wilson(50, 100, 0.95)
	if !(0 < lo && lo < 0.5 && 0.5 < hi && hi < 1) {
		t.Fatalf("Wilson(50/100) = [%v, %v] implausible", lo, hi)
	}
	// Symmetric counts give a symmetric interval around 1/2.
	if math.Abs((0.5-lo)-(hi-0.5)) > 1e-12 {
		t.Fatalf("Wilson(50/100) = [%v, %v] not symmetric", lo, hi)
	}
}

func TestRegIncBetaIdentities(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, tc := range []struct{ a, b, x float64 }{
		{2, 5, 0.3}, {7, 3, 0.8}, {0.5, 0.5, 0.2}, {10, 10, 0.5},
	} {
		l := regIncBeta(tc.a, tc.b, tc.x)
		r := 1 - regIncBeta(tc.b, tc.a, 1-tc.x)
		if math.Abs(l-r) > 1e-10 {
			t.Fatalf("symmetry broken at (a=%v, b=%v, x=%v): %v vs %v", tc.a, tc.b, tc.x, l, r)
		}
	}
	// betaInv is the inverse: I(a, b, betaInv(p, a, b)) ≈ p.
	for _, tc := range []struct{ p, a, b float64 }{
		{0.025, 3, 8}, {0.5, 5, 5}, {0.975, 8, 3}, {0.005, 400, 1},
	} {
		x := betaInv(tc.p, tc.a, tc.b)
		if got := regIncBeta(tc.a, tc.b, x); math.Abs(got-tc.p) > 1e-9 {
			t.Fatalf("betaInv roundtrip (p=%v, a=%v, b=%v): I = %v", tc.p, tc.a, tc.b, got)
		}
	}
}

func TestSplitMixStreamsDecorrelated(t *testing.T) {
	// Adjacent indices must not produce shifted copies of one stream.
	a := newSplitMix(42, 0)
	b := newSplitMix(42, 1)
	same := 0
	const k = 64
	av := make([]uint64, k)
	for i := range av {
		av[i] = a.next()
	}
	for i := 0; i < k; i++ {
		if b.next() == av[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for indices 0 and 1 collide in %d/%d draws", same, k)
	}
}

func TestDefaulted(t *testing.T) {
	c := Config{}.Defaulted()
	if c.Samples != DefaultSamples || c.Steps != DefaultSteps || c.Confidence != DefaultConfidence {
		t.Fatalf("Defaulted() = %+v", c)
	}
	c = Config{Samples: 7, Steps: 9, Confidence: 0.5, Seed: 3, Workers: 2}.Defaulted()
	if c.Samples != 7 || c.Steps != 9 || c.Confidence != 0.5 || c.Seed != 3 || c.Workers != 2 {
		t.Fatalf("Defaulted() clobbered explicit fields: %+v", c)
	}
}

// Wilson returns the Wilson score interval (cheap, good coverage away
// from the boundary) for hits successes out of n trials at the given
// two-sided confidence level (e.g. 0.99).
func Wilson(hits, n int, confidence float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	z := math.Sqrt2 * math.Erfinv(confidence)
	p := float64(hits) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := p + z*z/(2*nn)
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo = (center - half) / denom
	hi = (center + half) / denom
	return clamp01(lo), clamp01(hi)
}
