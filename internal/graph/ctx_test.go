package graph

import (
	"context"
	"errors"
	"testing"
)

// The BFS loops poll their context once every 1<<10 iterations
// (internal/interrupt), so the cancellation tests need graphs whose
// traversal runs well past that.
const ctxLineLen = 5000

func lineCSR(n int) CSR {
	off := make([]int32, n+1)
	var dst []int32
	for v := 0; v < n; v++ {
		off[v] = int32(len(dst))
		if v+1 < n {
			dst = append(dst, int32(v+1))
		}
	}
	off[n] = int32(len(dst))
	return CSR{Off: off, Dst: dst}
}

func TestReachableCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen, err := ReachableCtx(ctx, lineCSR(ctxLineLen), []int{0})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != nil {
		t.Fatal("cancelled traversal returned a partial result")
	}
}

func TestReachableCtxNilAndLive(t *testing.T) {
	g := lineCSR(ctxLineLen)
	want := Reachable(g, []int{0})
	for _, ctx := range []context.Context{nil, context.Background()} {
		seen, err := ReachableCtx(ctx, g, []int{0})
		if err != nil {
			t.Fatalf("ctx=%v: %v", ctx, err)
		}
		for v := range want {
			if seen[v] != want[v] {
				t.Fatalf("ctx=%v: seen[%d] = %v, want %v", ctx, v, seen[v], want[v])
			}
		}
	}
}

// A cancelled traversal leaves the graph as it was: the same CSR,
// traversed again without a context, reaches every vertex of the line.
func TestReachableCSRCtxCancelled(t *testing.T) {
	g := lineCSR(ctxLineLen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReachableCtx(ctx, g, []int{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	seen, err := ReachableCtx(nil, g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("state %d unreachable in line graph", v)
		}
	}
}
