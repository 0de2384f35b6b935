package ts

import (
	"context"
	"fmt"

	"relive/internal/graph"
	"relive/internal/interrupt"
)

// SweepTrimCtx is the trim TrimCtx replaced, kept as the differential
// reference: after the reachability pass it sweeps every state until no
// state loses its last live successor, which is quadratic on a chain of
// dead ends, and it builds the survivors through AddState and
// AddTransition.
func (s *System) SweepTrimCtx(ctx context.Context) (*System, error) {
	if s.initial < 0 {
		return nil, fmt.Errorf("ts: system has no initial state")
	}
	n := s.NumStates()
	succ := func(v int) []int {
		var out []int
		for _, ts := range s.trans[v] {
			for _, t := range ts {
				out = append(out, int(t))
			}
		}
		return out
	}
	reach, err := graph.ReachableCtx(ctx, n, []int{int(s.initial)}, succ)
	if err != nil {
		return nil, fmt.Errorf("ts: trim: %w", err)
	}
	alive := make([]bool, n)
	copy(alive, reach)
	var tick interrupt.Tick
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if err := tick.Poll(ctx); err != nil {
				return nil, fmt.Errorf("ts: trim: %w", err)
			}
			if !alive[v] {
				continue
			}
			hasSucc := false
			for _, t := range succ(v) {
				if alive[t] {
					hasSucc = true
					break
				}
			}
			if !hasSucc {
				alive[v] = false
				changed = true
			}
		}
	}
	if !alive[s.initial] {
		return nil, fmt.Errorf("ts: initial state has no infinite behavior")
	}
	out := New(s.ab)
	for v := 0; v < n; v++ {
		if alive[v] {
			out.AddState(s.names[v])
		}
	}
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		from, _ := out.LookupState(s.names[v])
		for sym, ts := range s.trans[v] {
			for _, to := range ts {
				if alive[to] {
					toSt, _ := out.LookupState(s.names[to])
					out.AddTransition(from, sym, toSt)
				}
			}
		}
	}
	init, _ := out.LookupState(s.names[s.initial])
	out.SetInitial(init)
	return out, nil
}
