//go:build !race

package factor

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"dimmwitted/internal/core"
)

// TestGibbsParallelWallSpeedup is the wall-clock gate on the parallel
// executor's shared-state mode: on the benchmark-scale paleo-xl graph,
// for both chain placements, it samples at least as fast as the
// simulated interleaver running the same plan. The speedup is the
// median over five back-to-back pairs of runs, so a burst of other work
// on the host, or a shift in its speed between runs, cannot decide the
// comparison. The race detector and coverage counters slow the
// goroutines far more than the interleaver, so race builds skip this
// file and coverage runs skip the test.
func TestGibbsParallelWallSpeedup(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters turn the hot loops' shared lines into contended writes; the gate times uninstrumented code")
	}
	const sweeps = 8
	g := PaleoXL()
	samplesPerSec := func(plan core.Plan) float64 {
		t.Helper()
		eng, err := core.NewWorkload(NewWorkload(g), plan)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		runtime.GC()
		start := time.Now()
		samples := 0
		for _, er := range eng.RunEpochs(sweeps) {
			samples += er.Steps
		}
		return float64(samples) / time.Since(start).Seconds()
	}
	for _, pl := range []struct {
		name string
		plan core.Plan
	}{
		{"PerMachine", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 1}},
		{"PerNode", core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 1}},
	} {
		par := pl.plan
		par.Executor = core.ExecParallel
		ratios := make([]float64, 5)
		for i := range ratios {
			sim := samplesPerSec(pl.plan)
			ratios[i] = samplesPerSec(par) / sim
		}
		slices.Sort(ratios)
		speedup := ratios[len(ratios)/2]
		t.Logf("%s: parallel/simulated samples per second %.2fx (pairs %.2f)", pl.name, speedup, ratios)
		if speedup < 1.0 {
			t.Errorf("%s: parallel executor lost to the simulated one (%.2fx)", pl.name, speedup)
		}
	}
}
