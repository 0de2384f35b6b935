package core

import (
	"context"
	"fmt"

	"relive/internal/buchi"
	"relive/internal/interrupt"
	"relive/internal/nfa"
	"relive/internal/obs"
	"relive/internal/ts"
	"relive/internal/word"
)

// MachineClosureResult is the outcome of a machine-closure check; when
// the structure is not machine closed, BadPrefix ∈ pre(L_ω) \ pre(Λ).
type MachineClosureResult struct {
	Holds     bool
	BadPrefix word.Word
}

// MachineClosed decides whether (L_ω, Λ) is a machine closed live
// structure (Definition 4.6): pre(L_ω) ⊆ pre(Λ). Both languages are
// given as Büchi automata; Λ ⊆ L_ω is the caller's obligation. The two
// prefix constructions and the inclusion check report to ctx's
// recorder, and the inclusion polls ctx.
func MachineClosed(ctx context.Context, lomega, lambda *buchi.Buchi) (MachineClosureResult, error) {
	if err := interrupt.Done(ctx); err != nil {
		return MachineClosureResult{}, fmt.Errorf("machine closure: %w", err)
	}
	rec := obs.RecorderFromContext(ctx)
	sp := obs.StartSpan(rec, "core.MachineClosed").
		Tag("paper", "Definition 4.6: pre(L_ω) ⊆ pre(Λ)")
	defer sp.End()
	preL := prefixNFA(rec, lomega)
	preLambda := prefixNFA(rec, lambda)
	isp := obs.StartSpan(rec, "pre(L_ω) ⊆ pre(Λ)").
		Tag("kernel", nfa.ResolveKernel(preLambda)).
		Int("left_states", int64(preL.NumStates())).
		Int("right_states", int64(preLambda.NumStates()))
	ok, w, err := nfa.IncludedKernelCtx(ctx, preL, preLambda)
	isp.End()
	if err != nil {
		return MachineClosureResult{}, fmt.Errorf("machine closure: %w", err)
	}
	if ok {
		return MachineClosureResult{Holds: true}, nil
	}
	return MachineClosureResult{Holds: false, BadPrefix: w}, nil
}

// RelativeLivenessViaMachineClosure decides relative liveness through
// the machine-closure connection stated after Theorem 4.5: P is a
// relative liveness property of L_ω iff (L_ω, P ∩ L_ω) is machine
// closed. It is a third, independent route to the same answer, used for
// cross-validation and ablation benchmarks.
func RelativeLivenessViaMachineClosure(sys *ts.System, p Property) (MachineClosureResult, error) {
	pc := NewPipelineCells(sys, p)
	trimmed, behaviors, err := pc.sc.limits(nil)
	if err != nil {
		return MachineClosureResult{}, fmt.Errorf("machine closure: %w", err)
	}
	if trimmed == nil {
		return MachineClosureResult{Holds: true}, nil
	}
	// pre(Λ) for Λ = L_ω ∩ P is exactly the pipeline's pre(L∩P) product.
	preLambda, err := pc.preProduct(nil)
	if err != nil {
		return MachineClosureResult{}, fmt.Errorf("machine closure: %w", err)
	}
	preL := behaviors.PrefixNFA()
	ok, w, err := nfa.IncludedKernelCtx(nil, preL, preLambda)
	if err != nil {
		return MachineClosureResult{}, fmt.Errorf("machine closure: %w", err)
	}
	if ok {
		return MachineClosureResult{Holds: true}, nil
	}
	return MachineClosureResult{Holds: false, BadPrefix: w}, nil
}
