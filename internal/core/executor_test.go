package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// TestExecutorParity is the refactor's core guarantee: for each of
// SVM/LR/LS under every model-replication strategy, the simulated
// interleaver and the real-goroutine executor run the same plan and
// land within tolerance of the same final loss. Exact equality is
// impossible — Hogwild! interleavings are nondeterministic — but both
// backends share the partition/replication/combine path, so the
// statistics must agree.
func TestExecutorParity(t *testing.T) {
	tasks := []struct {
		spec model.Spec
		ds   *data.Dataset
	}{
		{model.NewSVM(), data.Reuters()},
		{model.NewLR(), data.Reuters()},
		{model.NewLS(), data.MusicRegression()},
	}
	const epochs = 8
	for _, task := range tasks {
		init := task.spec.Loss(task.ds, task.spec.NewReplica(task.ds).X)
		for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
			base := Plan{Access: model.RowWise, ModelRep: rep, Workers: 4, Seed: 7}
			parPlan := base
			parPlan.Executor = ExecParallel

			sim := mustEngine(t, task.spec, task.ds, base)
			par := mustEngine(t, task.spec, task.ds, parPlan)
			var simLoss, parLoss float64
			for i := 0; i < epochs; i++ {
				simLoss = sim.RunEpoch().Loss
				parLoss = par.RunEpoch().Loss
			}

			if simLoss >= init || parLoss >= init {
				t.Errorf("%s/%v: losses did not decrease (init %v, sim %v, par %v)",
					task.spec.Name(), rep, init, simLoss, parLoss)
			}
			rel := math.Abs(simLoss-parLoss) / math.Abs(simLoss)
			if rel > 0.25 {
				t.Errorf("%s/%v: executors disagree: sim %v vs parallel %v (rel %.3f)",
					task.spec.Name(), rep, simLoss, parLoss, rel)
			}
		}
	}
}

// execWallTask is one model and dataset the executors are compared on.
type execWallTask struct {
	spec model.Spec
	ds   *data.Dataset
}

// execWallTasks are the inputs the executors are compared on at
// benchmark scale: the sparse text tasks on replicated Reuters and
// least squares on replicated Music, large enough that an epoch's step
// work dominates the parallel backend's orchestration (pool wakeup,
// steal cursors, barrier).
func execWallTasks() []execWallTask {
	return []execWallTask{
		{model.NewSVM(), data.ReutersReplicated()},
		{model.NewLR(), data.ReutersReplicated()},
		{model.NewLS(), data.MusicRegressionReplicated()},
	}
}

// execWallRun runs epochs of the optimizer's Local2 plan for exec and
// returns the final loss and the wall time per epoch. The clock starts
// after a forced GC, so no earlier test's garbage is collected on it.
func execWallRun(t *testing.T, spec model.Spec, ds *data.Dataset, exec ExecutorKind, epochs int) (float64, time.Duration) {
	t.Helper()
	plan, err := ChooseExecutor(spec, ds, numa.Local2, exec)
	if err != nil {
		t.Fatalf("%s/%v: %v", spec.Name(), exec, err)
	}
	e := mustEngine(t, spec, ds, plan)
	defer e.Close()
	runtime.GC()
	start := time.Now()
	res := e.RunToLoss(0, epochs)
	return res.FinalLoss, time.Since(start) / time.Duration(res.Epochs)
}

// TestExecWallParity is TestExecutorParity at benchmark scale and with
// the optimizer's own plans: after the same two epochs, both backends
// land within 25% of each other's loss.
func TestExecWallParity(t *testing.T) {
	for _, task := range execWallTasks() {
		sim, _ := execWallRun(t, task.spec, task.ds, ExecSimulated, 2)
		par, wall := execWallRun(t, task.spec, task.ds, ExecParallel, 2)
		if rel := math.Abs(sim-par) / math.Abs(sim); rel > 0.25 {
			t.Errorf("%s: executors disagree after identical epochs: sim %v vs parallel %v", task.spec.Name(), sim, par)
		}
		if wall <= 0 {
			t.Errorf("%s: parallel run reported no wall time", task.spec.Name())
		}
	}
}

// TestRunEpochCtxCancelled: a cancelled context aborts the epoch on
// both backends without advancing the epoch counter, and the engine
// remains usable afterwards.
func TestRunEpochCtxCancelled(t *testing.T) {
	for _, exec := range []ExecutorKind{ExecSimulated, ExecParallel} {
		e := mustEngine(t, model.NewSVM(), data.Reuters(),
			Plan{Executor: exec, Access: model.RowWise, Workers: 4})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.RunEpochCtx(ctx); err == nil {
			t.Errorf("%v: cancelled epoch reported success", exec)
		}
		if e.Epoch() != 0 {
			t.Errorf("%v: cancelled epoch advanced the counter to %d", exec, e.Epoch())
		}
		er, err := e.RunEpochCtx(context.Background())
		if err != nil {
			t.Errorf("%v: epoch after cancellation: %v", exec, err)
		}
		if er.Epoch != 1 {
			t.Errorf("%v: epoch after cancellation numbered %d", exec, er.Epoch)
		}
	}
}

// TestRunToLossCtxCancelMidRun: cancelling while a long parallel run
// is in flight stops it promptly with the context's error.
func TestRunToLossCtxCancelMidRun(t *testing.T) {
	e := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	const maxEpochs = 1 << 20
	res, err := e.RunToLossCtx(ctx, 0, maxEpochs)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if res.Epochs >= maxEpochs {
		t.Errorf("run consumed all %d epochs despite cancellation", maxEpochs)
	}
}

// TestValidateRejectsUnknownStrategies: unknown replication or
// executor values fail plan validation loudly instead of silently
// falling back (the old RunConcurrent treated every non-Full strategy
// as Sharding).
func TestValidateRejectsUnknownStrategies(t *testing.T) {
	spec := model.NewSVM()
	bad := []Plan{
		{DataRep: DataReplication(42)},
		{ModelRep: ModelReplication(42)},
		{Executor: ExecutorKind(42)},
		{Executor: ExecParallel, Access: model.ColToRow},
	}
	for _, p := range bad {
		if err := p.Normalize(spec).Validate(spec); err == nil {
			t.Errorf("plan %+v passed validation", p)
		}
		if _, err := New(spec, data.Reuters(), p); err == nil {
			t.Errorf("engine accepted plan %+v", p)
		}
	}
}

// colOnlySpec narrows a spec to column-wise access, modelling the
// coordinate-descent-only case the parallel backend cannot run.
type colOnlySpec struct{ model.Spec }

func (colOnlySpec) Supports() []model.Access { return []model.Access{model.ColWise} }

func TestChooseExecutorParallelNeedsRowWise(t *testing.T) {
	spec := colOnlySpec{model.NewLS()}
	ds := data.MusicRegression()
	if _, err := ChooseExecutor(spec, ds, numa.Local2, ExecParallel); err == nil {
		t.Error("parallel plan chosen for a column-only spec")
	}
	plan, err := ChooseExecutor(spec, ds, numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != model.ColWise {
		t.Errorf("simulated choice picked %v", plan.Access)
	}
	// Every real spec has a row-wise method, so parallel choice works
	// and pins row-wise access plus the executor in the plan.
	pp, err := ChooseExecutor(model.NewQP(), data.AmazonQP(), numa.Local2, ExecParallel)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Access != model.RowWise || pp.Executor != ExecParallel {
		t.Errorf("parallel QP plan = %v", pp)
	}
}

func TestExecutorNames(t *testing.T) {
	if ExecSimulated.String() != "simulated" || ExecParallel.String() != "parallel" {
		t.Error("executor stringers wrong")
	}
	if ExecutorKind(9).String() == "" {
		t.Error("unknown executor should stringify")
	}
	for name, want := range map[string]ExecutorKind{
		"": ExecSimulated, "sim": ExecSimulated, "simulated": ExecSimulated, "parallel": ExecParallel,
	} {
		got, err := ExecutorByName(name)
		if err != nil || got != want {
			t.Errorf("ExecutorByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ExecutorByName("threads"); err == nil {
		t.Error("bogus executor name accepted")
	}
	p := Plan{Executor: ExecParallel}.Normalize(model.NewSVM())
	if !strings.Contains(p.String(), "parallel") {
		t.Errorf("parallel plan string %q does not name the executor", p)
	}
}

// TestParallelExecutorAggregate: the one-pass aggregate (parallel sum)
// produces the exact total under real concurrency — atomic adds make
// component-level lost updates impossible.
func TestParallelExecutorAggregate(t *testing.T) {
	ds := data.ParallelSum(1200, 4)
	spec := model.NewParallelSum()
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		e := mustEngine(t, spec, ds, Plan{Executor: ExecParallel, ModelRep: rep, DataRep: Sharding, Workers: 4})
		er := e.RunEpoch()
		if got := e.Model()[0]; got != 4800 {
			t.Errorf("%v: parallel sum = %v, want 4800", rep, got)
		}
		if er.Steps != ds.Rows() {
			t.Errorf("%v: parallel sum ran %d steps, want %d", rep, er.Steps, ds.Rows())
		}
	}
}

// TestExecutorSharedWorkPartition: both executors derive identical
// work assignments from the same seed — the partitioner is genuinely
// shared, not duplicated.
func TestExecutorSharedWorkPartition(t *testing.T) {
	mk := func(exec ExecutorKind) *Engine {
		return mustEngine(t, model.NewSVM(), data.Reuters(),
			Plan{Executor: exec, Access: model.RowWise, DataRep: FullReplication, Workers: 4, Seed: 3})
	}
	sim, par := mk(ExecSimulated), mk(ExecParallel)
	sim.assignWork()
	par.assignWork()
	for i := range sim.workers {
		sw, pw := sim.workers[i], par.workers[i]
		if sw.repIdx != pw.repIdx {
			t.Fatalf("worker %d: replica group %d vs %d", i, sw.repIdx, pw.repIdx)
		}
		if len(sw.items) != len(pw.items) {
			t.Fatalf("worker %d: %d vs %d items", i, len(sw.items), len(pw.items))
		}
		for k := range sw.items {
			if sw.items[k] != pw.items[k] {
				t.Fatalf("worker %d diverges at item %d", i, k)
			}
		}
	}
}
