package mc_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/mc"
	"relive/internal/ts"
	"relive/internal/word"
)

// goldenFormulas is the property menu of rlperf's generated requests.
var goldenFormulas = []string{
	"G F a",
	"G (a -> F b)",
	"F G c",
	"G F a & G F b",
	"G (b -> X F c)",
	"(G F a) -> (G F b)",
	"G (a -> (b U c))",
	"F G (a | b)",
}

// goldenSamplerDigest is the SHA-256 of every Result field and report
// byte TestGoldenSampler produces; see that test for what it covers.
const goldenSamplerDigest = "e18da74c43a3c502fda0dee6533aefd6b224f9ace23e0f3d819104f15f702c8c"

// goldenConfig is one mc.Run configuration of TestGoldenSampler.
type goldenConfig struct {
	desc string
	sys  *ts.System
	cfg  mc.Config
	f    *ltl.Formula
}

// goldenConfigs lists TestGoldenSampler's mc.Run configurations: random
// systems over a, b, c — raw, with dead ends, and trimmed — across
// sizes 4 to 512, densities 0.2 to 0.5, walk lengths from the
// degenerate 1 to 256, one to three workers and the eight rlperf
// formulas.
func goldenConfigs(t *testing.T) []goldenConfig {
	t.Helper()
	ab := gen.Letters(3)
	var out []goldenConfig
	for ni, n := range []int{4, 5, 7, 9, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512} {
		for di := 0; di < 8; di++ {
			density := []float64{0.2, 0.3, 0.4, 0.5}[di%4]
			rng := rand.New(rand.NewSource(int64(1000*ni + di)))
			raw := gen.System(rng, ab, n, density)
			systems := []*ts.System{raw}
			if trimmed, err := raw.Trim(); err == nil {
				systems = append(systems, trimmed)
			}
			for _, sys := range systems {
				for _, steps := range []int{1, 2, 3, 17, 64, 256} {
					i := len(out)
					out = append(out, goldenConfig{
						desc: fmt.Sprintf("n=%d density=%v steps=%d", n, density, steps),
						sys:  sys,
						cfg: mc.Config{
							Seed:       int64(i)*7919 - 3,
							Samples:    40 + i%97,
							Steps:      steps,
							Confidence: []float64{0.9, 0.95, 0.99}[i%3],
							Workers:    1 + i%3,
						},
						f: ltl.MustParse(goldenFormulas[i%len(goldenFormulas)]),
					})
				}
			}
		}
	}
	return out
}

// shared is the evaluator constructor for an evaluator without
// scratch: every worker calls eval itself.
func shared(eval func(word.Lasso) (bool, error)) func() func(word.Lasso) (bool, error) {
	return func() func(word.Lasso) (bool, error) { return eval }
}

// evalLasso is the evaluator constructor over the reference semantics,
// ltl.EvalLasso under the canonical labeling of a, b, c.
func evalLasso(f *ltl.Formula) func() func(word.Lasso) (bool, error) {
	lab := ltl.Canonical(gen.Letters(3))
	return shared(func(l word.Lasso) (bool, error) { return ltl.EvalLasso(f, l, lab) })
}

// TestGoldenSampler pins the sampler's output bit for bit: one digest
// over the Result fields (counts, interval bounds, counterexample index
// and lasso) of mc.Run on goldenConfigs, evaluated by ltl.EvalLasso,
// plus the marshalled core.CheckStatistical reports of the paper's
// correct and broken servers. A change to how walks are taken,
// settled, swept, evaluated or aggregated changes the digest.
func TestGoldenSampler(t *testing.T) {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putWord := func(w word.Word) {
		put(uint64(len(w)))
		for _, s := range w {
			put(uint64(s))
		}
	}
	var configs, settled, counterexamples int
	for _, c := range goldenConfigs(t) {
		res, err := mc.Run(context.Background(), c.sys, c.cfg, evalLasso(c.f))
		if err != nil {
			t.Fatalf("%s: %v", c.desc, err)
		}
		configs++
		settled += res.Settled
		put(uint64(res.Samples))
		put(uint64(res.Settled))
		put(uint64(res.Hits))
		put(math.Float64bits(res.Estimate))
		put(math.Float64bits(res.Low))
		put(math.Float64bits(res.High))
		if cx := res.Counterexample; cx != nil {
			counterexamples++
			put(uint64(cx.Index))
			putWord(cx.Lasso.Prefix)
			putWord(cx.Lasso.Loop)
		} else {
			put(math.MaxUint64)
		}
	}
	for _, text := range []string{goldenServer, goldenBrokenServer} {
		sys, err := ts.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		p := core.FromFormula(ltl.MustParse("G F result"), nil)
		for _, o := range []core.StatOptions{{Seed: 1}, {Seed: 42, Samples: 150, Steps: 96, Workers: 2}, {Seed: 7, Steps: 9}} {
			rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p, o)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d configurations, %d settled samples, %d counterexamples", configs, settled, counterexamples)
	if got != goldenSamplerDigest {
		t.Fatalf("sampler digest = %s, want %s", got, goldenSamplerDigest)
	}
}

// TestGoldenSamplerCompiledEval reruns goldenConfigs with the compiled
// evaluator core uses, one per worker, and checks it against
// ltl.EvalLasso on every settled lasso, so the run's Result is the one
// EvalLasso gives: the compiled law on the sampler's own lassos, whose
// loops sweep whole bottom SCCs of up to 512 states.
func TestGoldenSamplerCompiledEval(t *testing.T) {
	lab := ltl.Canonical(gen.Letters(3))
	for _, c := range goldenConfigs(t) {
		prog := ltl.Compile(c.f, lab)
		_, err := mc.Run(context.Background(), c.sys, c.cfg, func() func(word.Lasso) (bool, error) {
			e := prog.Evaluator()
			return func(l word.Lasso) (bool, error) {
				got, err := e.Eval(l)
				if err != nil {
					return false, err
				}
				if want, _ := ltl.EvalLasso(c.f, l, lab); got != want {
					return false, fmt.Errorf("compiled %v, EvalLasso %v on %s", got, want, l.String(gen.Letters(3)))
				}
				return got, nil
			}
		})
		if err != nil {
			t.Fatalf("%s, %s: %v", c.desc, c.f, err)
		}
	}
}

const goldenServer = `init idle
idle request busy
busy result idle
busy reject idle
`

const goldenBrokenServer = `init broken
broken request busy
busy result broken
busy reject stuck
stuck no stuck
`

// TestClosedTailThatIsNotStronglyConnectedNeverSettles: from s0 a walk
// may loop on a or leave for the sink t. A 4-step walk still in s0 at
// step 2 (prefix "a a") that leaves at step 3 or 4 has the tail {s0, t}:
// closed under every transition but not strongly connected, so it must
// not settle. Only walks already in t at step 2 settle, so every
// settled lasso has left s0 within its prefix and loops on c.
func TestClosedTailThatIsNotStronglyConnectedNeverSettles(t *testing.T) {
	sys, err := ts.ParseString("init s0\ns0 a s0\ns0 b t\nt c t\n")
	if err != nil {
		t.Fatal(err)
	}
	b, c := sys.Alphabet().Symbol("b"), sys.Alphabet().Symbol("c")
	res, err := mc.Run(context.Background(), sys, mc.Config{Seed: 5, Samples: 4000, Steps: 4, Workers: 2},
		shared(func(l word.Lasso) (bool, error) {
			left := false
			for _, s := range l.Prefix {
				left = left || s == b
			}
			for _, s := range l.Loop {
				if s != c {
					left = false
				}
			}
			if !left {
				var names []string
				for _, s := range append(append(word.Word{}, l.Prefix...), l.Loop...) {
					names = append(names, sys.Alphabet().Name(s))
				}
				return false, fmt.Errorf("settled lasso %s has s0 in its tail", strings.Join(names, " "))
			}
			return true, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	// A walk is in t at step 2 with probability 3/4; were {s0, t} tails
	// accepted the ratio would be 15/16.
	if res.Settled == 0 || res.Hits != res.Settled || res.Settled > res.Samples*13/16 {
		t.Fatalf("settled %d of %d (hits %d), want about 3/4", res.Settled, res.Samples, res.Hits)
	}
}
