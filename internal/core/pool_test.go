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
)

// poolLanes counts the live pool lane goroutines that the calling
// goroutine's engines started: stacks running laneLoop whose creator
// is this goroutine. Lanes left by other tests' engines do not count,
// so the figure does not depend on test order.
func poolLanes() int {
	self, _, _ := strings.Cut(strings.TrimPrefix(string(stackDump(false)), "goroutine "), " ")
	creator := "created by dimmwitted/internal/core.(*parallelExecutor).start in goroutine " + self + "\n"
	n := 0
	for _, g := range strings.Split(string(stackDump(true)), "\n\n") {
		if strings.Contains(g, ".laneLoop(") && strings.Contains(g, creator) {
			n++
		}
	}
	return n
}

// stackDump returns runtime.Stack's full output, growing the buffer
// until it fits.
func stackDump(all bool) []byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, all)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// lanesSettle polls until at most want lanes remain or the deadline
// passes, absorbing scheduler lag between a lane's wg.Done and its
// goroutine's exit.
func lanesSettle(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := poolLanes()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolLifecycle pins the persistent pool's contract: goroutines
// spawn once at the first epoch (min(workers, GOMAXPROCS) lanes, not
// one per epoch), the count stays flat across epochs, Close drains
// every one of them, Close is idempotent, and an epoch after Close
// fails loudly instead of hanging on closed feeds.
func TestPoolLifecycle(t *testing.T) {
	if n := poolLanes(); n != 0 {
		t.Fatalf("%d lanes before any engine ran", n)
	}
	e := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise, Workers: 4, Seed: 1})

	want := runtime.GOMAXPROCS(0)
	if want > 4 {
		want = 4
	}
	e.RunEpoch()
	afterFirst := poolLanes()
	if afterFirst != want {
		t.Errorf("pool after first epoch: %d lanes, want %d", afterFirst, want)
	}
	for i := 0; i < 5; i++ {
		e.RunEpoch()
	}
	if n := poolLanes(); n > afterFirst {
		t.Errorf("pool grew across epochs: %d lanes after 6 epochs, %d after 1", n, afterFirst)
	}

	e.Close()
	if n := lanesSettle(0); n > 0 {
		t.Errorf("pool leaked: %d lanes after Close", n)
	}
	e.Close() // idempotent

	if _, err := e.RunEpochCtx(context.Background()); err == nil {
		t.Fatal("epoch after Close reported success")
	} else if !strings.Contains(err.Error(), "closed") {
		t.Errorf("epoch after Close: %v, want a mention of the closed executor", err)
	}
}

// TestCloseSimulatedNoop: Close on a simulated engine (and on a
// parallel engine that never ran an epoch) is a safe no-op.
func TestCloseSimulatedNoop(t *testing.T) {
	sim := mustEngine(t, model.NewSVM(), data.Reuters(), Plan{})
	sim.Close()
	if sim.RunEpoch().Epoch != 1 {
		t.Error("simulated engine unusable after Close")
	}
	par := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise})
	par.Close() // never started: nothing to drain
}

// TestWorkStealingExactness: with StealChunk 1 every worker contends
// for every unit, the worst case for the claim cursors. The one-pass
// aggregate must still be exact — each unit claimed exactly once — on
// both concurrency modes' combine paths, and repeatably so. Run under
// -race in CI, this is also the stealing memory-model check.
func TestWorkStealingExactness(t *testing.T) {
	ds := data.ParallelSum(1200, 4)
	spec := model.NewParallelSum()
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		for run := 0; run < 3; run++ {
			e := mustEngine(t, spec, ds, Plan{
				Executor: ExecParallel, ModelRep: rep, DataRep: Sharding,
				Workers: 4, StealChunk: 1, Seed: 9,
			})
			er := e.RunEpoch()
			if got := e.Model()[0]; got != 4800 {
				t.Errorf("%v run %d: stolen parallel sum = %v, want 4800", rep, run, got)
			}
			if er.Steps != ds.Rows() {
				t.Errorf("%v run %d: %d steps, want %d (each unit exactly once)", rep, run, er.Steps, ds.Rows())
			}
			e.Close()
		}
	}
}

// TestStealChunkRoundTrip: the new knob survives the plan normalize /
// snapshot / restore cycle.
func TestStealChunkRoundTrip(t *testing.T) {
	p := Plan{}.Normalize(model.NewSVM())
	if p.StealChunk != 64 {
		t.Errorf("default steal chunk = %d, want 64", p.StealChunk)
	}
	e := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise, Workers: 2, StealChunk: 7})
	e.RunEpoch()
	snap := e.Snapshot()
	if snap.Plan.StealChunk != 7 {
		t.Errorf("snapshot steal chunk = %d, want 7", snap.Plan.StealChunk)
	}
	re, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if re.Plan.StealChunk != 7 {
		t.Errorf("decoded steal chunk = %d, want 7", re.Plan.StealChunk)
	}
}

// TestLaneLossBitIdentical: a parallel GLM engine's Loss, whose row
// terms the pool lanes compute, is bitwise the spec's serial Loss at
// every lane count — before the first epoch (the pool is not started,
// so Loss folds inline), after epochs (the lane pass) and after Close
// (inline again).
func TestLaneLossBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := append(sparseUnitCases(), rowSpecCase{"sum", model.NewParallelSum(), data.ParallelSum(1000, 4), 1})
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			e := mustEngine(t, c.spec, c.ds, Plan{Executor: ExecParallel, Access: model.RowWise, Workers: 4, Seed: 3})
			p := e.exec.(*parallelExecutor)
			check := func(when string) {
				t.Helper()
				got, want := e.Loss(), c.spec.Loss(c.ds, e.Model())
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("GOMAXPROCS %d %s %s: Engine.Loss %v, spec.Loss %v", procs, c.name, when, got, want)
				}
			}
			check("before the first epoch")
			for i := 0; i < 3; i++ {
				if er := e.RunEpoch(); math.Float64bits(er.Loss) != math.Float64bits(c.spec.Loss(c.ds, e.Model())) {
					t.Fatalf("GOMAXPROCS %d %s epoch %d: loss %v, spec.Loss %v", procs, c.name, er.Epoch, er.Loss, c.spec.Loss(c.ds, e.Model()))
				}
			}
			if want := min(procs, 4); !p.started || len(p.lanes) != want {
				t.Fatalf("GOMAXPROCS %d %s: pool started %v with %d lanes, want %d", procs, c.name, p.started, len(p.lanes), want)
			}
			check("after epochs")
			e.Close()
			check("after Close")
		}
	}
}
