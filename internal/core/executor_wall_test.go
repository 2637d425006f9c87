//go:build !race

package core

import (
	"slices"
	"testing"
)

// TestParallelWallSpeedup is the wall-clock gate on the parallel
// executor: on the benchmark-scale GLM inputs it never takes longer per
// epoch than the simulated interleaver running the same optimizer plan.
// The speedup is the median over five back-to-back pairs of runs, so a
// burst of other work on the host, or a shift in its speed between
// runs, cannot decide the comparison. The race detector and coverage
// counters slow the goroutines far more than the interleaver, so race
// builds skip this file and coverage runs skip the test.
func TestParallelWallSpeedup(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters turn the hot loops' shared lines into contended writes; the gate times uninstrumented code")
	}
	for _, task := range execWallTasks() {
		ratios := make([]float64, 5)
		for i := range ratios {
			_, sim := execWallRun(t, task.spec, task.ds, ExecSimulated, 2)
			_, par := execWallRun(t, task.spec, task.ds, ExecParallel, 2)
			ratios[i] = float64(sim) / float64(par)
		}
		slices.Sort(ratios)
		speedup := ratios[len(ratios)/2]
		t.Logf("%s on %s: simulated/parallel wall per epoch %.2fx (pairs %.2f)", task.spec.Name(), task.ds.Name, speedup, ratios)
		if speedup < 1.0 {
			t.Errorf("%s on %s: parallel executor lost to the simulated one (%.2fx)", task.spec.Name(), task.ds.Name, speedup)
		}
	}
}
