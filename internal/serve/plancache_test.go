package serve

import (
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

func TestPlanCacheHitMiss(t *testing.T) {
	c := NewPlanCache()
	spec := model.NewSVM()
	ds, err := NewCatalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor(spec, ds, numa.Local2, core.ExecSimulated)

	if _, ok := c.Lookup(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	plan, err := core.Choose(spec, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(key, plan)

	got, ok := c.Lookup(key)
	if !ok {
		t.Fatal("stored plan not found")
	}
	if got.String() != plan.String() {
		t.Errorf("cached plan %s, want %s", got, plan)
	}

	// A different dataset (different statistics) must miss.
	other, err := NewCatalog().Dataset("rcv1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(KeyFor(spec, other, numa.Local2, core.ExecSimulated)); ok {
		t.Error("different dataset hit the cache")
	}
	// A different topology must miss too.
	if _, ok := c.Lookup(KeyFor(spec, ds, numa.Local8, core.ExecSimulated)); ok {
		t.Error("different machine hit the cache")
	}
	// A different executor must miss: parallel restricts the plan
	// space the optimizer prices.
	if _, ok := c.Lookup(KeyFor(spec, ds, numa.Local2, core.ExecParallel)); ok {
		t.Error("different executor hit the cache")
	}

	st := c.Stats()
	if st.Size != 1 || st.Hits != 1 || st.Misses != 4 {
		t.Errorf("stats = %+v, want size 1, hits 1, misses 4", st)
	}
}

func TestSchedulerUsesPlanCache(t *testing.T) {
	s := newTestScheduler(t, Options{})
	req := TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2}

	id1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	after1 := s.Plans().Stats()
	if after1.Misses != 1 || after1.Hits != 0 || after1.Size != 1 {
		t.Fatalf("after first job: %+v, want 1 miss, 0 hits", after1)
	}

	// The identical job must skip the optimizer.
	id2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id2, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	after2 := s.Plans().Stats()
	if after2.Hits != 1 || after2.Misses != 1 {
		t.Fatalf("after repeat job: %+v, want 1 hit, 1 miss", after2)
	}
	if st.State != "done" {
		t.Fatalf("repeat job state %s", st.State)
	}

	// Forced-access jobs bypass the cache entirely.
	id3, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", Access: "row", MaxEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id3, waitTimeout); err != nil {
		t.Fatal(err)
	}
	after3 := s.Plans().Stats()
	if after3 != after2 {
		t.Errorf("forced-access job touched the plan cache: %+v -> %+v", after2, after3)
	}

	// Counters mirror the cache.
	snap := s.Counters().Snapshot()
	if snap.Counts[metrics.PlanCacheHits] != 1 || snap.Counts[metrics.PlanCacheMisses] != 1 {
		t.Errorf("counters report %d hits / %d misses, want 1 / 1",
			snap.Counts[metrics.PlanCacheHits], snap.Counts[metrics.PlanCacheMisses])
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	spec := model.NewSVM()
	ds, err := NewCatalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Choose(spec, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(spec, ds, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunEpochs(3)
	snap := eng.Snapshot()
	if snap.Spec != "svm" || snap.Dataset != "reuters" || snap.Epoch != 3 {
		t.Fatalf("snapshot metadata %+v", snap)
	}
	if snap.SimTime <= 0 || snap.SimTime != eng.SimTime() {
		t.Errorf("snapshot sim time %v, engine %v", snap.SimTime, eng.SimTime())
	}

	// The snapshot must be isolated from further training.
	before := append([]float64(nil), snap.X...)
	eng.RunEpochs(2)
	for i := range before {
		if before[i] != snap.X[i] {
			t.Fatal("snapshot mutated by continued training")
		}
	}

	// Restoring into a fresh engine reproduces the snapshot's loss.
	eng2, err := core.New(spec, ds, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := eng2.Loss(); got != snap.Loss {
		t.Errorf("restored loss %v, snapshot loss %v", got, snap.Loss)
	}
	if eng2.Epoch() != snap.Epoch {
		t.Errorf("restored epoch %d, want %d", eng2.Epoch(), snap.Epoch)
	}
	if eng2.SimTime() != snap.SimTime {
		t.Errorf("restored sim time %v, want %v", eng2.SimTime(), snap.SimTime)
	}
	// The decayed step schedule continues where the snapshot left off.
	if snap.Step >= plan.Normalize(spec).Step {
		t.Errorf("snapshot step %v did not decay from %v", snap.Step, plan.Normalize(spec).Step)
	}
	if got := eng2.Snapshot().Step; got != snap.Step {
		t.Errorf("restored step %v, want %v", got, snap.Step)
	}

	// Mismatched specs and dimensions are rejected.
	engLR, err := core.New(model.NewLR(), ds, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := engLR.Restore(snap); err == nil {
		t.Error("restore across specs succeeded")
	}
	short := snap
	short.X = snap.X[:10]
	if err := eng2.Restore(short); err == nil {
		t.Error("restore with wrong dimension succeeded")
	}

	// Sanity: predictions can be served straight from the snapshot.
	if _, err := model.PredictBatch(spec, snap.X, model.DatasetExamples(ds, []int{0, 1, 2})); err != nil {
		t.Errorf("predict from snapshot: %v", err)
	}
}
