package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/mat"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// trajectoryBits is the pinned one-lane trajectory of one spec: the
// math.Float64bits of every epoch's loss and an FNV-1a hash of the
// final model's bits.
type trajectoryBits struct {
	losses []uint64
	model  uint64
}

// pinnedTrajectories were generated at commit d74ff73, before the
// executor's row-touch pass and the allocation-free epoch order
// existed. Both must leave every step, in order, and every
// floating-point operation unchanged, so a one-lane parallel run
// reproduces these bits exactly.
var pinnedTrajectories = map[string]trajectoryBits{
	"svm": {
		losses: []uint64{0x3fde64e08493ae48, 0x3fdaf2f422d49c74, 0x3fd59f2768fbdf0c, 0x3fd4d9d68dada900, 0x3fd5064b896391fd, 0x3fd484d0a0081136},
		model:  0x5d15f54a69c745de,
	},
	"lr": {
		losses: []uint64{0x3fde7109ecdcfca5, 0x3fd90e1d5907cd89, 0x3fd4f6f911d99905, 0x3fd4a11ea0196891, 0x3fd4677a2fcae065, 0x3fd3ea589de21627},
		model:  0xe1b9a649a7be152f,
	},
}

// modelHash is FNV-1a over the little-endian bits of x.
func modelHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestParallelOneLaneTrajectoryPinned: with one worker the parallel
// executor's delta path is sequential SGD — the claim order, flush
// points and arithmetic are all deterministic — so its loss trajectory
// is pinned bit for bit. Any change to which rows are stepped, in what
// order, or with what arithmetic shows up here. Skipped off amd64,
// where the compiler may fuse multiply-adds and move the low bits.
func TestParallelOneLaneTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact trajectory pinned on amd64 only (GOARCH=%s may fuse multiply-adds)", runtime.GOARCH)
	}
	ds := data.GenerateSparse(data.SparseConfig{
		Name: "pinned", Rows: 3000, Cols: 400, NNZPerRow: 12, Noise: 0.05, Seed: 11,
	})
	const epochs = 6
	for _, spec := range []model.Spec{model.NewSVM(), model.NewLR()} {
		e := mustEngine(t, spec, ds, Plan{
			Executor: ExecParallel, Access: model.RowWise,
			DataRep: FullReplication, Workers: 1, Seed: 5,
		})
		var got trajectoryBits
		for i := 0; i < epochs; i++ {
			got.losses = append(got.losses, math.Float64bits(e.RunEpoch().Loss))
		}
		got.model = modelHash(e.Model())
		e.Close()

		want, ok := pinnedTrajectories[spec.Name()]
		if !ok {
			t.Errorf("%s: no pinned trajectory; got losses %#x model %#x", spec.Name(), got.losses, got.model)
			continue
		}
		for i := range want.losses {
			if got.losses[i] != want.losses[i] {
				t.Errorf("%s epoch %d: loss bits %#x (%v), pinned %#x (%v)", spec.Name(), i+1,
					got.losses[i], math.Float64frombits(got.losses[i]),
					want.losses[i], math.Float64frombits(want.losses[i]))
			}
		}
		if got.model != want.model {
			t.Errorf("%s: final model hash %#x, pinned %#x", spec.Name(), got.model, want.model)
		}
	}
}

// pinnedPerNodeTrajectories are the optimizer's 12-worker PerNode
// plan on Local2 (two replicas of six workers each), generated at commit
// 46ba781, before the delta worker marked a row's coordinates dirty only
// after a step that wrote. Lane bands are cut along replicas, so at one
// or two lanes every replica has a single writing goroutine and the
// trajectory is deterministic; the bits must not depend on the lane
// count.
var pinnedPerNodeTrajectories = map[string]trajectoryBits{
	"svm": {
		losses: []uint64{0x3fd8bf2f09eb53c8, 0x3fd66b8e4a02e7aa, 0x3fd5733c7c376d96, 0x3fd54e3e7514ed59, 0x3fd52bc7369c4bb7},
		model:  0x56213661a0873ab5,
	},
	"svm-l2": {
		losses: []uint64{0x3fd901260f6b895b, 0x3fd69c3a7e679aa0, 0x3fd562067fc4f24d, 0x3fd6ce18e50acabe, 0x3fd667a82bfc89ff},
		model:  0xd3a3a300dcf36de4,
	},
	"lr": {
		losses: []uint64{0x3fd7b40b873796ab, 0x3fd5b5625fe08759, 0x3fd58b2b3e0695f4, 0x3fd549ffc789f2a7, 0x3fd4e3335695cb4a},
		model:  0x6b8ac1dbaf1a1c66,
	},
}

// TestParallelPerNodeTrajectoryPinned pins the multi-worker delta path
// where TestParallelOneLaneTrajectoryPinned pins the one-worker path:
// flushes, refreshes and steals across six co-replica workers. A
// coordinate whose update is dropped or never refreshed changes these
// bits. It runs under GOMAXPROCS 1 and 2 and restores the old value.
// Skipped off amd64 for the same reason as the one-lane pin.
func TestParallelPerNodeTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact trajectory pinned on amd64 only (GOARCH=%s may fuse multiply-adds)", runtime.GOARCH)
	}
	ds := data.GenerateSparse(data.SparseConfig{
		Name: "pinned-pernode", Rows: 6000, Cols: 800, NNZPerRow: 12, Noise: 0.05, Seed: 13,
	})
	const epochs = 5
	specs := []struct {
		name string
		spec model.Spec
	}{
		{"svm", model.NewSVM()},
		{"svm-l2", model.NewSVMRegularized(0.1)},
		{"lr", model.NewLR()},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range specs {
				plan, err := ChooseExecutor(c.spec, ds, numa.Local2, ExecParallel)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if plan.ModelRep != PerNode || plan.Workers != 12 {
					t.Fatalf("%s: optimizer chose %v with %d workers, want PerNode with 12", c.name, plan.ModelRep, plan.Workers)
				}
				e := mustEngine(t, c.spec, ds, plan)
				var got trajectoryBits
				for i := 0; i < epochs; i++ {
					got.losses = append(got.losses, math.Float64bits(e.RunEpoch().Loss))
				}
				got.model = modelHash(e.Model())
				e.Close()

				want, ok := pinnedPerNodeTrajectories[c.name]
				if !ok {
					t.Errorf("%s: no pinned trajectory; got losses %#x model %#x", c.name, got.losses, got.model)
					continue
				}
				for i := range want.losses {
					if got.losses[i] != want.losses[i] {
						t.Errorf("%s epoch %d: loss bits %#x (%v), pinned %#x (%v)", c.name, i+1,
							got.losses[i], math.Float64frombits(got.losses[i]),
							want.losses[i], math.Float64frombits(want.losses[i]))
					}
				}
				if got.model != want.model {
					t.Errorf("%s: final model hash %#x, pinned %#x", c.name, got.model, want.model)
				}
			}
		})
	}
}

// allUnits returns 0..n-1.
func allUnits(n int) []int {
	u := make([]int, n)
	for i := range u {
		u[i] = i
	}
	return u
}

// touchAndEpoch touches every unit of e's workload, then runs one full
// epoch, failing unless the epoch steps every unit exactly once (the
// plans here shard the data).
func touchAndEpoch(t *testing.T, name string, e *Engine) {
	t.Helper()
	n := e.wl.Units()
	if v := e.wl.(UnitToucher).TouchUnits(allUnits(n)); math.IsNaN(v) {
		t.Errorf("%s: touch returned NaN", name)
	}
	if er := e.RunEpoch(); er.Steps != n {
		t.Errorf("%s: epoch ran %d steps, want %d", name, er.Steps, n)
	}
}

// TestTouchUnitsEdgeCases covers the rows a touch pass can trip on:
// empty rows at the first, a middle and the last position (the last
// one's RowPtr equals len(ColIdx)), datasets without labels (LP, QP),
// column access (a no-op), and rows past the old end after Engine.Grow
// adopts a larger stream view. Each case also runs a full parallel
// epoch, whose delta path calls the touch on every claimed chunk.
func TestTouchUnitsEdgeCases(t *testing.T) {
	par := Plan{Executor: ExecParallel, Access: model.RowWise, DataRep: Sharding, Workers: 2, StealChunk: 3, Seed: 1}

	t.Run("empty rows", func(t *testing.T) {
		const rows, cols = 40, 16
		b := mat.NewBuilder(cols)
		labels := make([]float64, rows)
		for i := 0; i < rows; i++ {
			labels[i] = float64(1 - 2*(i%2))
			if i == 0 || i == rows/2 || i == rows-1 {
				b.AddRow(nil, nil)
				continue
			}
			b.AddRow([]int32{int32(i % cols), int32((i + 5) % cols)}, []float64{1, 0.5})
		}
		ds := &data.Dataset{Name: "empty-rows", Task: data.Classification, A: b.Build(), Labels: labels}
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t, model.NewSVM(), ds, par)
		defer e.Close()
		if got := e.wl.(UnitToucher).TouchUnits([]int{0, rows / 2, rows - 1}); got != labels[0]+labels[rows/2]+labels[rows-1] {
			t.Errorf("touching only empty rows = %v, want just their labels", got)
		}
		touchAndEpoch(t, "empty rows", e)
	})

	t.Run("nil labels", func(t *testing.T) {
		g := data.GenerateGraph(data.GraphConfig{Name: "touch", Nodes: 300, EdgesPerNode: 3, Seed: 2})
		for _, task := range []struct {
			spec model.Spec
			ds   *data.Dataset
		}{
			{model.NewLP(), g.VertexCoverLP()},
			{model.NewQP(), g.SmoothingQP(0.3, 3)},
		} {
			if task.ds.Labels != nil {
				t.Fatalf("%s: expected a dataset without labels", task.ds.Name)
			}
			e := mustEngine(t, task.spec, task.ds, par)
			touchAndEpoch(t, task.spec.Name(), e)
			e.Close()
		}
	})

	t.Run("column access", func(t *testing.T) {
		// More columns than rows: column units past the last row would
		// index RowPtr out of range if the touch read rows.
		ds := data.GenerateSparse(data.SparseConfig{Name: "wide", Rows: 30, Cols: 200, NNZPerRow: 5, Seed: 4})
		e := mustEngine(t, model.NewSVM(), ds, Plan{Access: model.ColToRow, Workers: 2, Seed: 1})
		defer e.Close()
		if got := e.wl.(UnitToucher).TouchUnits([]int{150, 199}); got != 0 {
			t.Errorf("column-access touch = %v, want 0", got)
		}
		// The parallel executor is row-wise only, so column access
		// runs its epoch on the simulated executor.
		if er := e.RunEpoch(); er.Steps != ds.Cols() {
			t.Errorf("column epoch ran %d steps, want %d", er.Steps, ds.Cols())
		}
	})

	t.Run("grown view", func(t *testing.T) {
		const cols = 24
		h := data.NewStream("touch-grow", cols, data.Classification)
		rng := rand.New(rand.NewSource(5))
		rows := func(n int) []data.Row {
			out := make([]data.Row, n)
			for i := range out {
				out[i] = data.Row{
					Indices: []int32{int32(rng.Intn(cols)), int32(cols - 1)},
					Values:  []float64{rng.Float64(), 1},
					Label:   float64(1 - 2*rng.Intn(2)),
				}
			}
			out[n-1] = data.Row{Label: 1} // an empty last row
			return out
		}
		v1, err := h.Append(rows(50))
		if err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t, model.NewSVM(), v1, par)
		defer e.Close()
		e.RunEpoch()
		v2, err := h.Append(rows(120))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Grow(v2); err != nil {
			t.Fatal(err)
		}
		grown := allUnits(v2.Rows())[v1.Rows():]
		if v := e.wl.(UnitToucher).TouchUnits(grown); math.IsNaN(v) {
			t.Error("touching grown rows returned NaN")
		}
		touchAndEpoch(t, "grown view", e)
	})
}

// TestEpochOrderMatchesPerm: the engine's reusable epoch-order
// buffer makes exactly rand.Perm's draws, call after call and across a
// domain that grows, and allocates nothing once sized.
func TestEpochOrderMatchesPerm(t *testing.T) {
	e := mustEngine(t, model.NewSVM(), data.Reuters(), Plan{Workers: 1, Seed: 1})
	e.rng = rand.New(rand.NewSource(8))
	ref := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 17, 17, 500, 40} {
		got, want := e.epochOrder(n), ref.Perm(n)
		if len(got) != n {
			t.Fatalf("domain %d: order has %d items", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("domain %d: order[%d] = %d, rand.Perm gives %d", n, i, got[i], want[i])
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { e.epochOrder(500) }); a != 0 {
		t.Errorf("epochOrder allocates %v times per call, want 0", a)
	}
}

// TestFillPermMatchesPerm: FillPerm's one-modulo draw yields
// rand.Perm's permutation and leaves the source at the same position.
// At 200000 some draws fall in a partial block and are redrawn, so the
// rejection path is compared too.
func TestFillPermMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1024, 200000} {
		src, refSrc := NewSeededSource(int64(n)), NewSeededSource(int64(n))
		got := make([]int, n)
		FillPerm(rand.New(src), got)
		want := rand.New(refSrc).Perm(n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: p[%d] = %d, rand.Perm gives %d", n, i, got[i], want[i])
			}
		}
		if src.State() != refSrc.State() {
			t.Fatalf("n=%d: source at %v, rand.Perm leaves it at %v", n, src.State(), refSrc.State())
		}
		if n == 200000 && src.State().Draws == uint64(n) {
			t.Errorf("n=%d: no draw was rejected, the rejection path is not exercised", n)
		}
	}
}
