package ts_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"relive/internal/alphabet"
	"relive/internal/gen"
	"relive/internal/ts"
)

// TestTrimMatchesSweepReference pins the linear trim to the sweep it
// replaced: the same system, down to the order of every target list,
// and the same error, on 3,000 random systems of 1–60 states over one
// to three letters at densities 0.02–0.3. Applying one more transition
// to both outputs must keep them equal, so the output's shared target
// array never leaks an append into a neighbouring row.
func TestTrimMatchesSweepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	survived, empty := 0, 0
	for trial := 0; trial < 3000; trial++ {
		ab := gen.Letters(1 + trial%3)
		sys := gen.System(rng, ab, 1+rng.Intn(60), 0.02+0.28*rng.Float64())
		want, wantErr := sys.SweepTrimCtx(nil)
		got, err := sys.TrimCtx(nil)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: err %v, want %v\nsystem:\n%s", trial, err, wantErr, sys.FormatString())
		}
		if wantErr != nil {
			empty++
			continue
		}
		survived++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: trimmed to\n%s\nwant\n%s\nsystem:\n%s", trial, got.FormatString(), want.FormatString(), sys.FormatString())
		}
		last := ts.State(got.NumStates() - 1)
		sym := got.Enabled(0)[0]
		got.AddTransition(0, sym, last)
		want.AddTransition(0, sym, last)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: adding 0 -%s-> %d diverged:\n%s\nwant\n%s", trial, ab.Name(sym), last, got.FormatString(), want.FormatString())
		}
	}
	t.Logf("%d systems kept a behavior, %d had none", survived, empty)
	if survived < 500 || empty < 500 {
		t.Fatalf("%d systems kept a behavior and %d had none; want at least 500 of each", survived, empty)
	}
}

// deadEndChain builds the n-state chain s0 → s1 → … → s(n-1) with a
// self-loop at the initial state s0: every state but s0 dies, one per
// round of a sweep that re-scans the states until nothing changes.
func deadEndChain(n int) *ts.System {
	sys := ts.New(alphabet.FromNames("a"))
	for i := 0; i < n; i++ {
		sys.AddState(fmt.Sprintf("s%d", i))
	}
	a := sys.Alphabet().Symbol("a")
	sys.AddTransition(0, a, 0)
	for i := 0; i+1 < n; i++ {
		sys.AddTransition(ts.State(i), a, ts.State(i+1))
	}
	sys.SetInitial(0)
	return sys
}

// TestTrimDeadEndChain: a 50,000-state dead-end chain fits in one
// service request, and trimming it must not hold a worker until the
// request's deadline.
func TestTrimDeadEndChain(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := deadEndChain(50000).TrimCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates() != 1 || got.StateName(0) != "s0" {
		t.Fatalf("trimmed to %d states, want s0 alone", got.NumStates())
	}
}

// BenchmarkTrim: generated systems of rlperf's sampled sizes over a, b,
// c at density 0.3 (the first seeds with a behavior), and the dead-end
// chain.
func BenchmarkTrim(b *testing.B) {
	ab := gen.Letters(3)
	for _, n := range []int{128, 256, 512} {
		var sys *ts.System
		for seed := int64(1); sys == nil; seed++ {
			cand := gen.System(rand.New(rand.NewSource(seed)), ab, n, 0.3)
			if _, err := cand.Trim(); err == nil {
				sys = cand
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchTrim(b, sys) })
	}
	chain := deadEndChain(50000)
	b.Run("chain=50000", func(b *testing.B) { benchTrim(b, chain) })
}

func benchTrim(b *testing.B, sys *ts.System) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Trim(); err != nil {
			b.Fatal(err)
		}
	}
}
