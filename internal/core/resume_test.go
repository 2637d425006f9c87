// Property test for the durability tentpole: for every workload family
// on both executors, training N epochs straight must be bit-identical
// to training k epochs, snapshotting through the full binary codec,
// restoring into a freshly built engine, and training the remaining
// N−k epochs. The external test package lets the test drive the real
// factor and nn workload adapters (which import core).
//
// Parallel-executor cases run one worker: with concurrent workers the
// *uninterrupted* run is already nondeterministic (Hogwild flush and
// sample interleaving), so bit-identity is only a meaningful property
// of the deterministic single-worker configuration. Simulated cases
// run the full worker complement — the deterministic interleaver makes
// any worker count reproducible. GLM runs row access: column access
// keeps incrementally maintained auxiliary state that restore rebuilds
// from the model, which is exact in value but not in floating-point
// accumulation history.
package core_test

import (
	"math"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/nn"
	"dimmwitted/internal/numa"
)

// resumeCase builds fresh workloads (a workload binds to one engine,
// so every engine needs its own) under one plan.
type resumeCase struct {
	name string
	mk   func(t *testing.T) core.Workload
	plan core.Plan
}

func glmWorkload(t *testing.T) core.Workload {
	t.Helper()
	return core.NewGLM(model.NewSVM(), data.Reuters())
}

func gibbsWorkload(t *testing.T) core.Workload {
	t.Helper()
	return factor.NewWorkload(factor.Cycle5())
}

func nnWorkload(t *testing.T) core.Workload {
	t.Helper()
	ds, err := nn.Build("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := nn.Sizes("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := nn.NewWorkload(ds, nn.WorkloadConfig{Sizes: sizes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func resumeCases() []resumeCase {
	return []resumeCase{
		{"glm/simulated", glmWorkload, core.Plan{Machine: numa.Local2, ModelRep: core.PerNode, Seed: 3}},
		{"glm/parallel", glmWorkload, core.Plan{Machine: numa.Local2, Executor: core.ExecParallel, Workers: 1, Seed: 3}},
		{"gibbs/simulated", gibbsWorkload, core.Plan{Machine: numa.Local2, ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 5}},
		{"gibbs/parallel", gibbsWorkload, core.Plan{Machine: numa.Local2, Executor: core.ExecParallel, Workers: 1, ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 5}},
		{"nn/simulated", nnWorkload, core.Plan{Machine: numa.Local2, ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 7}},
		{"nn/parallel", nnWorkload, core.Plan{Machine: numa.Local2, Executor: core.ExecParallel, Workers: 1, Seed: 7}},
	}
}

// runEpochs advances an engine n epochs and returns its final loss and
// combined state.
func runEpochs(t *testing.T, e *core.Engine, n int) (float64, []float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.RunEpoch()
	}
	return e.Loss(), append([]float64(nil), e.Model()...)
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	const total, at = 8, 3
	for _, tc := range resumeCases() {
		t.Run(tc.name, func(t *testing.T) {
			// The reference: an uninterrupted run of `total` epochs.
			ref, err := core.NewWorkload(tc.mk(t), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			wantLoss, wantX := runEpochs(t, ref, total)

			// The interrupted run: `at` epochs, then a snapshot through
			// the binary codec — exactly what the checkpoint store
			// writes and Resume reads back.
			head, err := core.NewWorkload(tc.mk(t), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			runEpochs(t, head, at)
			snap, err := core.DecodeSnapshot(core.EncodeSnapshot(head.Snapshot()))
			if err != nil {
				t.Fatalf("codec round trip: %v", err)
			}
			if snap.Epoch != at {
				t.Fatalf("snapshot at epoch %d, want %d", snap.Epoch, at)
			}

			// The resumed engine is built from scratch — new workload,
			// new replicas, new generators — under the snapshot's plan,
			// the crash-recovery path.
			tail, err := core.NewWorkload(tc.mk(t), snap.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := tail.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if tail.Epoch() != at {
				t.Fatalf("restored engine at epoch %d, want %d", tail.Epoch(), at)
			}
			gotLoss, gotX := runEpochs(t, tail, total-at)

			if tail.Epoch() != total {
				t.Fatalf("resumed engine finished at epoch %d, want %d", tail.Epoch(), total)
			}
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Fatalf("final loss diverged: resumed %v (%016x), uninterrupted %v (%016x)",
					gotLoss, math.Float64bits(gotLoss), wantLoss, math.Float64bits(wantLoss))
			}
			if len(gotX) != len(wantX) {
				t.Fatalf("model dimension diverged: %d vs %d", len(gotX), len(wantX))
			}
			for i := range gotX {
				if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("model[%d] diverged: %v vs %v (epoch-%d resume)", i, gotX[i], wantX[i], at)
				}
			}
		})
	}
}

// TestGibbsRestoreWithoutChainStateFails pins the safety property the
// chain codec buys: a snapshot stripped of its private replica state
// (as any pre-durability snapshot was) must refuse to seed new chains
// rather than silently restarting sampling from pooled marginals.
func TestGibbsRestoreWithoutChainStateFails(t *testing.T) {
	wl := gibbsWorkload(t)
	plan := core.Plan{Machine: numa.Local2, ModelRep: core.PerNode, DataRep: core.FullReplication}
	eng, err := core.NewWorkload(wl, plan)
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 2)
	snap := eng.Snapshot()
	if len(snap.Priv) == 0 {
		t.Fatal("gibbs snapshot carries no chain state")
	}
	snap.Priv = nil

	fresh, err := core.NewWorkload(gibbsWorkload(t), snap.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err == nil {
		t.Fatal("restore accepted a gibbs snapshot without chain state")
	}
}

// TestRestoreRejectsMismatchedReplicaCount pins the plan-revalidation
// property: chain state from a 2-chain (PerNode) run cannot restore
// into a 12-chain (PerCore) engine.
func TestRestoreRejectsMismatchedReplicaCount(t *testing.T) {
	eng, err := core.NewWorkload(gibbsWorkload(t), core.Plan{Machine: numa.Local2, ModelRep: core.PerNode, DataRep: core.FullReplication})
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 1)
	snap := eng.Snapshot()

	other, err := core.NewWorkload(gibbsWorkload(t), core.Plan{Machine: numa.Local2, ModelRep: core.PerCore, DataRep: core.FullReplication})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore accepted chain state with mismatched replica count")
	}
}
