package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
)

// versionedModel builds a snapshot whose every weight equals version
// and a scorer that asserts it only ever sees that version's weights.
// A torn publication — version k's scorer paired with version j's
// weight slice, or a half-written slice — fails the scorer loudly, so
// the soak test below turns memory-consistency bugs into test errors.
func versionedModel(dim int, version float64) (Scorer, core.Snapshot) {
	x := make([]float64, dim)
	for i := range x {
		x[i] = version
	}
	snap := core.Snapshot{Workload: core.WorkloadGLM, Spec: "svm", Dataset: "reuters", Epoch: int(version), X: x}
	scorer := func(got []float64, examples []model.Example) ([]float64, error) {
		if len(got) != dim {
			return nil, fmt.Errorf("torn model: scorer v%v sees %d weights, want %d", version, len(got), dim)
		}
		for i, v := range got {
			if v != version {
				return nil, fmt.Errorf("torn model: scorer v%v sees weight[%d]=%v", version, i, v)
			}
		}
		out := make([]float64, len(examples))
		for i := range out {
			out[i] = version
		}
		return out, nil
	}
	return scorer, snap
}

// TestRegistryPredictSoak is the serving-path race soak: 32 goroutines
// hammer Predict on a small hot set while concurrent Puts republish
// those models, a cold model is lazily loaded from the durable store,
// and List scans everything. Run under -race by CI; the versioned
// scorers additionally assert that no prediction ever observes a torn
// (scorer, weights) pair, even while the entry is swapped underneath.
func TestRegistryPredictSoak(t *testing.T) {
	_, store := testStores(t)
	reg := NewRegistry()
	reg.Persist(store, nil)

	const dim = 64
	hot := []string{"hot-0", "hot-1", "hot-2", "hot-3"}
	for _, id := range hot {
		scorer, snap := versionedModel(dim, 1)
		if err := reg.PutScored(id, scorer, snap); err != nil {
			t.Fatal(err)
		}
	}
	// A disk-only model the readers will fault in mid-soak.
	coldSnap := core.Snapshot{Workload: core.WorkloadGLM, Spec: "svm", Dataset: "reuters", X: make([]float64, dim)}
	if _, _, err := store.Save("cold-1", coldSnap, nil); err != nil {
		t.Fatal(err)
	}

	const readers = 32
	const iters = 400
	examples := []model.Example{{Idx: []int32{3}, Vals: []float64{1}}}
	stop := make(chan struct{})
	var readerWg, bgWg sync.WaitGroup

	// Publisher: republish the hot set with increasing versions.
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for v := 2.0; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range hot {
				scorer, snap := versionedModel(dim, v)
				if err := reg.PutScored(id, scorer, snap); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}
	}()
	// Lister: scan listings (in-memory rows plus the disk-only model).
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := len(reg.List()); got < len(hot) {
				t.Errorf("listing shrank to %d models", got)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		readerWg.Add(1)
		go func(g int) {
			defer readerWg.Done()
			for i := 0; i < iters; i++ {
				id := hot[(g+i)%len(hot)]
				preds, err := reg.Predict(id, examples)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if len(preds) != 1 || preds[0] != math.Trunc(preds[0]) || preds[0] < 1 {
					t.Errorf("reader %d: prediction %v is not a whole published version", g, preds)
					return
				}
				if i%37 == 0 {
					if _, err := reg.Predict("cold-1", examples); err != nil {
						t.Errorf("reader %d cold: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	// Publisher and lister run for the readers' whole lifetime, then
	// stop; the race detector plus the versioned scorers carry the
	// assertions.
	readerWg.Wait()
	close(stop)
	bgWg.Wait()
}

// TestRegistryLazyLoadSingleFlight is the regression test for the
// thundering-herd fix: 32 concurrent Predicts against a cold
// store-resident model must read and decode the store exactly once
// (one restore counted), not once per waiting request.
func TestRegistryLazyLoadSingleFlight(t *testing.T) {
	_, store := testStores(t)
	x := make([]float64, 128)
	for i := range x {
		x[i] = 0.25
	}
	snap := core.Snapshot{Workload: core.WorkloadGLM, Spec: "svm", Dataset: "reuters", Epoch: 3, X: x}
	if _, _, err := store.Save("job-9", snap, nil); err != nil {
		t.Fatal(err)
	}

	var counters metrics.ServeCounters
	reg := NewRegistry()
	reg.Persist(store, &counters)

	const clients = 32
	examples := []model.Example{{Idx: []int32{0}, Vals: []float64{2}}}
	start := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			preds, err := reg.Predict("job-9", examples)
			if err != nil || len(preds) != 1 {
				failures.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d/%d cold predictions failed", n, clients)
	}
	if got := counters.Snapshot().Counts[metrics.CheckpointRestores]; got != 1 {
		t.Fatalf("cold popular model decoded %d times, want 1 (single-flight)", got)
	}
	// Once resident, further predictions stay on the lock-free path:
	// no additional restores.
	if _, err := reg.Predict("job-9", examples); err != nil {
		t.Fatal(err)
	}
	if got := counters.Snapshot().Counts[metrics.CheckpointRestores]; got != 1 {
		t.Fatalf("resident model re-read the store (%d restores)", got)
	}
}

// TestRegistryRepublishKeepsLatest pins the atomic-swap publication
// rule: after a republish, readers see the new model immediately, and
// the listing row reflects it.
func TestRegistryRepublishKeepsLatest(t *testing.T) {
	reg := NewRegistry()
	scorer1, snap1 := versionedModel(8, 1)
	scorer2, snap2 := versionedModel(8, 2)
	if err := reg.PutScored("m", scorer1, snap1); err != nil {
		t.Fatal(err)
	}
	if err := reg.PutScored("m", scorer2, snap2); err != nil {
		t.Fatal(err)
	}
	preds, err := reg.Predict("m", []model.Example{{Idx: []int32{0}, Vals: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != 2 {
		t.Fatalf("prediction %v, want the republished version 2", preds[0])
	}
	if got := reg.List(); len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("listing %+v, want one row at epoch 2", got)
	}
	if reg.Len() != 1 {
		t.Fatalf("Len %d, want 1", reg.Len())
	}
}
