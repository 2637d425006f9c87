package factor

import (
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/trace"
)

// TestTraceCoversParallelGibbsEpochs is the tracing overhead guard: on
// a traced parallel Gibbs run, the named top-level spans must account
// for at least 90% of the epoch wall clock — anything less means the
// recorder is missing a phase of the engine's own time. The assertion
// is on the aggregate over all sweeps, which is far more stable than
// any single epoch's timing.
func TestTraceCoversParallelGibbsEpochs(t *testing.T) {
	g, err := Build("cycle5")
	if err != nil {
		t.Fatal(err)
	}
	plan := core.Plan{
		ModelRep: core.PerNode,
		DataRep:  core.FullReplication,
		Seed:     1,
		Executor: core.ExecParallel,
	}
	eng, err := core.NewWorkload(NewWorkload(g), plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Config{})
	eng.SetRecorder(rec)
	const sweeps = 50
	eng.RunEpochs(sweeps)

	s := rec.Summary()
	if s.Epochs != sweeps {
		t.Fatalf("recorded %d epoch spans, want %d", s.Epochs, sweeps)
	}
	if s.Coverage < 0.90 {
		t.Fatalf("top-level spans cover %.1f%% of epoch wall clock, want >= 90%%\nphases: %+v",
			s.Coverage*100, s.Phases)
	}
	// The parallel shared path must attribute per-worker time too: a
	// worker span per goroutine per epoch.
	var workerSpans int64
	for _, p := range s.Phases {
		if p.Phase == "worker" {
			workerSpans = p.Count
		}
	}
	if workerSpans != int64(sweeps*s.Workers) {
		t.Fatalf("worker spans = %d, want %d (%d workers x %d sweeps)",
			workerSpans, sweeps*s.Workers, s.Workers, sweeps)
	}
}
