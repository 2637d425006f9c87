//go:build !race

package core

import (
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// TestSimEpochAllocs is the simulated executor's allocation budget: a
// PerNode epoch on Local2, with the averaging worker running every
// round, allocates a fixed handful of objects however many rows it
// steps. Any per-step, per-round or per-row allocation makes the 8k
// count exceed the 2k one. The race detector's instrumentation
// allocates, so the file is excluded under -race.
func TestSimEpochAllocs(t *testing.T) {
	perEpoch := func(rows int) float64 {
		ds := data.GenerateSparse(data.SparseConfig{
			Name: "allocs", Rows: rows, Cols: 500, NNZPerRow: 10, Noise: 0.05, Seed: 3,
		})
		e := mustEngine(t, model.NewSVM(), ds, Plan{
			Machine: numa.Local2, Access: model.RowWise, ModelRep: PerNode,
			DataRep: FullReplication, SyncRounds: 0, Seed: 1,
		})
		e.RunEpoch() // warm-up: the order buffer and worker queues grow once
		return testing.AllocsPerRun(3, func() { e.RunEpoch() })
	}
	small, large := perEpoch(2000), perEpoch(8000)
	t.Logf("allocations per simulated epoch: %v at 2k rows, %v at 8k rows", small, large)
	if small != large {
		t.Errorf("allocations per epoch grow with rows: %v at 2k, %v at 8k", small, large)
	}
	if large > 16 {
		t.Errorf("%v allocations per epoch, budget 16", large)
	}
}
