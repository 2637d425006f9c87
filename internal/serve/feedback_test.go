package serve

import (
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/tune"
)

// TestPlanCacheEviction exercises the LRU size cap.
func TestPlanCacheEviction(t *testing.T) {
	c := NewPlanCacheSize(2)
	spec := model.NewSVM()
	ds, err := NewCatalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	keys := []PlanKey{
		KeyFor(spec, ds, numa.Local2, core.ExecSimulated),
		KeyFor(spec, ds, numa.Local4, core.ExecSimulated),
		KeyFor(spec, ds, numa.Local8, core.ExecSimulated),
	}
	plan := core.Plan{Machine: numa.Local2}
	c.Store(keys[0], plan)
	c.Store(keys[1], plan)
	// Touch key 0 so key 1 is the LRU victim when key 2 arrives.
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("stored key missing")
	}
	c.Store(keys[2], plan)

	if _, ok := c.Peek(keys[1]); ok {
		t.Fatal("LRU entry survived past the size cap")
	}
	for _, k := range []PlanKey{keys[0], keys[2]} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("recently used entry %v was evicted", k.Machine)
		}
	}
	st := c.Stats()
	if st.Size != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2, capacity 2, evictions 1", st)
	}
}

// TestPlanCacheInvalidate exercises the generational contract directly.
func TestPlanCacheInvalidate(t *testing.T) {
	c := NewPlanCache()
	spec := model.NewSVM()
	ds, err := NewCatalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor(spec, ds, numa.Local2, core.ExecSimulated)
	if c.Invalidate(key) {
		t.Fatal("invalidating a missing key reported success")
	}
	c.Store(key, core.Plan{Machine: numa.Local2})
	if !c.Invalidate(key) {
		t.Fatal("invalidating a present key reported failure")
	}
	if _, ok := c.Peek(key); ok {
		t.Fatal("invalidated entry still cached")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Generation != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation, generation 1", st)
	}
}

// rivalKey builds the observation key the scheduler would use for a
// candidate plan of the svm/reuters job — the test's window into the
// feedback store's keyspace.
func rivalKey(t *testing.T, ds *data.Dataset, p core.Plan) tune.Key {
	t.Helper()
	return tune.Key{
		Workload: "glm", Model: "svm", Dataset: ds.Name,
		Rows: ds.Rows(), Cols: ds.Cols(), NNZ: ds.NNZ(),
		DatasetVersion: ds.Version,
		Machine:        p.Machine.Name,
		Executor:       p.Executor.String(), ModelRep: p.ModelRep.String(),
		DataRep: p.DataRep.String(), Access: p.Access.String(),
		Workers: p.Workers, StealChunk: p.StealChunk,
	}
}

// TestFeedbackInvalidatesFlippedWinner is the tentpole's cache
// contract: once the feedback store proves a non-static candidate
// cheaper, the finished job's re-planning pass invalidates the cached
// static plan and stores the measured winner, and the next scheduler
// over the same store picks it as "measured".
func TestFeedbackInvalidatesFlippedWinner(t *testing.T) {
	fb := tune.NewStore(tune.Options{MinObservations: 1, Epsilon: -1})
	s := newTestScheduler(t, Options{Feedback: fb})
	req := TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2}

	id1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := s.Wait(id1, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != "done" {
		t.Fatalf("job 1 ended %s: %s", st1.State, st1.Error)
	}
	if st1.PlanSource != "static" {
		t.Fatalf("job 1 plan source %q, want static (nothing measured yet)", st1.PlanSource)
	}
	if st1.ObservedSecondsPerEpoch <= 0 {
		t.Fatalf("job 1 observed seconds/epoch = %v, want > 0", st1.ObservedSecondsPerEpoch)
	}
	if got := fb.Stats().Observations; got != 2 {
		t.Fatalf("feedback store holds %d observations after a 2-epoch job, want 2", got)
	}

	// Plant measurements that make a non-static candidate the winner.
	ds, err := s.Catalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	wl := core.NewGLM(model.NewSVM(), ds)
	cands, err := core.CandidatePlans(wl, numa.Local2, core.ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("only %d candidates", len(cands))
	}
	rival := cands[1]
	fb.Record(rivalKey(t, ds, rival), tune.Sample{SecondsPerEpoch: 1e-9})

	// The repeat job still runs the cached static plan, but its closing
	// re-planning pass must see the flip and invalidate the entry.
	id2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Wait(id2, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != "done" {
		t.Fatalf("job 2 ended %s: %s", st2.State, st2.Error)
	}
	if st2.PlanSource != "cached" {
		t.Fatalf("job 2 plan source %q, want cached", st2.PlanSource)
	}
	cs := s.Plans().Stats()
	if cs.Invalidations != 1 || cs.Generation != 1 {
		t.Fatalf("cache stats after flip = %+v, want 1 invalidation, generation 1", cs)
	}
	key := KeyFor(model.NewSVM(), ds, numa.Local2, core.ExecSimulated)
	got, ok := s.Plans().Peek(key)
	if !ok {
		t.Fatal("re-planned winner was not stored back")
	}
	if got.ModelRep != rival.ModelRep || got.DataRep != rival.DataRep {
		t.Fatalf("cached plan after flip = %v, want the measured rival %v", got, rival)
	}

	// A fresh scheduler sharing the store (a restart, in effect) must
	// choose the measured winner outright.
	s2 := newTestScheduler(t, Options{Feedback: fb})
	id3, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st3, err := s2.Wait(id3, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != "done" {
		t.Fatalf("job 3 ended %s: %s", st3.State, st3.Error)
	}
	if st3.PlanSource != "measured" {
		t.Fatalf("job 3 plan source %q, want measured", st3.PlanSource)
	}
	if st3.PredictedSecondsPerEpoch <= 0 {
		t.Fatalf("job 3 predicted seconds/epoch = %v, want > 0", st3.PredictedSecondsPerEpoch)
	}
}

// TestFeedbackDisabled: -no-feedback restores the purely static path.
func TestFeedbackDisabled(t *testing.T) {
	s := newTestScheduler(t, Options{DisableFeedback: true})
	if s.Feedback() != nil {
		t.Fatal("DisableFeedback left a feedback store attached")
	}
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.PlanSource != "static" {
		t.Fatalf("plan source %q, want static", st.PlanSource)
	}
	if st.PredictedSecondsPerEpoch != 0 {
		t.Fatalf("predicted = %v with feedback off, want 0", st.PredictedSecondsPerEpoch)
	}
	ds, err := s.Catalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	static, err := core.ChooseWorkload(core.NewGLM(model.NewSVM(), ds), numa.Local2, core.ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan != static.String() {
		t.Fatalf("executed plan %q, want the static optimizer's %q", st.Plan, static.String())
	}
}
