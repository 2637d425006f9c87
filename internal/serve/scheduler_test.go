package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

const waitTimeout = 60 * time.Second

func newTestScheduler(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s := NewScheduler(opts)
	t.Cleanup(s.Close)
	return s
}

func TestSchedulerLifecycle(t *testing.T) {
	s := newTestScheduler(t, Options{})

	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Epoch != 5 {
		t.Errorf("epoch = %d, want 5", st.Epoch)
	}
	if len(st.History) != 5 {
		t.Errorf("history has %d points, want 5", len(st.History))
	}
	if st.History[len(st.History)-1].Loss >= st.History[0].Loss {
		t.Errorf("loss did not decrease: %v -> %v", st.History[0].Loss, st.History[len(st.History)-1].Loss)
	}
	if st.Plan == "" {
		t.Error("done job has no plan")
	}
	if st.Started.IsZero() || st.Finished.IsZero() {
		t.Error("done job missing timestamps")
	}

	// The trained model must be in the registry, with matching loss.
	spec, snap, ok := s.Models().Get(id)
	if !ok {
		t.Fatalf("model %s not registered", id)
	}
	if spec.Name() != "svm" || snap.Dataset != "reuters" {
		t.Errorf("registered (%s, %s), want (svm, reuters)", spec.Name(), snap.Dataset)
	}
	if snap.Loss != st.Loss {
		t.Errorf("snapshot loss %v != job loss %v", snap.Loss, st.Loss)
	}
	if snap.Epoch != st.Epoch {
		t.Errorf("snapshot epoch %v != job epoch %v", snap.Epoch, st.Epoch)
	}
}

func TestSchedulerTargetLoss(t *testing.T) {
	s := newTestScheduler(t, Options{})
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", TargetLoss: 0.9, MaxEpochs: 200})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !st.Converged {
		t.Fatalf("job did not converge to 0.9 in 200 epochs (loss %v)", st.Loss)
	}
	if st.Loss > 0.9 {
		t.Errorf("converged but loss %v > target", st.Loss)
	}
	if st.Epoch >= 200 {
		t.Errorf("converged job ran all %d epochs", st.Epoch)
	}
}

func TestSchedulerSubmitValidation(t *testing.T) {
	s := newTestScheduler(t, Options{})
	cases := []TrainRequest{
		{Model: "nope", Dataset: "reuters"},
		{Model: "svm", Dataset: "nope"},
		{Model: "svm", Dataset: "reuters", Machine: "nope"},
		{Model: "svm", Dataset: "reuters", Access: "diagonal"},
		{Model: "svm", Dataset: "reuters", MaxEpochs: -1},
	}
	for _, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", req)
		}
	}
}

func TestSchedulerRunFailure(t *testing.T) {
	s := newTestScheduler(t, Options{})
	// LS supports row and col access but not column-to-row; the plan
	// passes submit-time parsing and fails engine validation at run
	// time, which must surface as a Failed job, not a crash.
	id, err := s.Submit(TrainRequest{Model: "ls", Dataset: "music-reg", Access: "ctr", MaxEpochs: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "ls") {
		t.Errorf("failure message %q does not mention the spec", st.Error)
	}
	if _, _, ok := s.Models().Get(id); ok {
		t.Error("failed job registered a model")
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	s := newTestScheduler(t, Options{})
	// A long job: many epochs with an unreachable target.
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "rcv1", MaxEpochs: 100000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until it is running with at least one epoch recorded.
	deadline := time.Now().Add(waitTimeout)
	for {
		st, _ := s.Status(id)
		if st.State == "running" && st.Epoch >= 1 {
			break
		}
		if st.State != "queued" && st.State != "running" {
			t.Fatalf("job reached %s before cancel", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if _, _, ok := s.Models().Get(id); ok {
		t.Error("cancelled job registered a model")
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := s.Cancel(id); err != nil {
		t.Errorf("second Cancel: %v", err)
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	// One slot: the first long job occupies it, the second job waits
	// in the queue and must be cancellable there.
	s := newTestScheduler(t, Options{Slots: 1})
	first, err := s.Submit(TrainRequest{Model: "svm", Dataset: "rcv1", MaxEpochs: 100000})
	if err != nil {
		t.Fatalf("Submit first: %v", err)
	}
	second, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2})
	if err != nil {
		t.Fatalf("Submit second: %v", err)
	}
	if err := s.Cancel(second); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	st, err := s.Wait(second, waitTimeout)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != "cancelled" {
		t.Fatalf("queued job state = %s, want cancelled", st.State)
	}
	if err := s.Cancel(first); err != nil {
		t.Fatalf("Cancel first: %v", err)
	}
	if st, err := s.Wait(first, waitTimeout); err != nil || st.State != "cancelled" {
		t.Fatalf("first job: %v / %+v", err, st.State)
	}
}

func TestSchedulerSlotsFromTopology(t *testing.T) {
	s := newTestScheduler(t, Options{Machine: numa.Local8})
	if s.Slots() != 8 {
		t.Errorf("local8 scheduler has %d slots, want 8 (one per node)", s.Slots())
	}
}

func TestSchedulerConcurrentJobs(t *testing.T) {
	// More jobs than slots, submitted from concurrent clients; all
	// must complete and register distinct models. Run under -race
	// this exercises engine isolation across concurrent jobs.
	s := newTestScheduler(t, Options{Machine: numa.Local4}) // 4 slots
	reqs := []TrainRequest{
		{Model: "svm", Dataset: "reuters", MaxEpochs: 4},
		{Model: "lr", Dataset: "reuters", MaxEpochs: 4},
		{Model: "svm", Dataset: "rcv1", MaxEpochs: 3},
		{Model: "ls", Dataset: "music-reg", MaxEpochs: 4},
		{Model: "lp", Dataset: "amazon-lp", MaxEpochs: 4},
		{Model: "qp", Dataset: "amazon-qp", MaxEpochs: 4},
		{Model: "svm", Dataset: "reuters", MaxEpochs: 2, Seed: 7},
		{Model: "lr", Dataset: "rcv1", MaxEpochs: 3},
	}
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req TrainRequest) {
			defer wg.Done()
			id, err := s.Submit(req)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = id
			if _, err := s.Wait(id, waitTimeout); err != nil {
				errs[i] = err
			}
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	seen := map[string]bool{}
	for i, id := range ids {
		st, ok := s.Status(id)
		if !ok || st.State != "done" {
			t.Fatalf("job %d (%s): state %v", i, id, st.State)
		}
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		if _, _, ok := s.Models().Get(id); !ok {
			t.Errorf("job %s registered no model", id)
		}
	}
	if got := s.Models().Len(); got != len(reqs) {
		t.Errorf("registry has %d models, want %d", got, len(reqs))
	}
	qs := s.Stats()
	if qs.Done != len(reqs) {
		t.Errorf("queue stats done = %d, want %d", qs.Done, len(reqs))
	}
}

func TestSchedulerJobEviction(t *testing.T) {
	s := newTestScheduler(t, Options{MaxJobHistory: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(id, waitTimeout); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A fifth submission triggers eviction of the oldest terminal jobs.
	last, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(last, waitTimeout); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Status(ids[0]); ok {
		t.Error("oldest job survived eviction")
	}
	if _, ok := s.Status(ids[3]); !ok {
		t.Error("recent job was evicted")
	}
	if n := len(s.Jobs()); n > 3 {
		t.Errorf("job table has %d records, want <= 3", n)
	}
	// Evicted jobs keep their registered models.
	if _, _, ok := s.Models().Get(ids[0]); !ok {
		t.Error("eviction dropped the registered model")
	}
	if got := s.Models().Len(); got != 5 {
		t.Errorf("registry has %d models, want 5", got)
	}
}

func TestSchedulerHistoryDecimation(t *testing.T) {
	if testing.Short() {
		t.Skip("long training run")
	}
	s := newTestScheduler(t, Options{})
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: maxHistoryPoints + 76})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != maxHistoryPoints+76 {
		t.Fatalf("epoch %d, want %d", st.Epoch, maxHistoryPoints+76)
	}
	if len(st.History) >= maxHistoryPoints {
		t.Errorf("history has %d points, want < %d after decimation", len(st.History), maxHistoryPoints)
	}
	// After one stride doubling every kept epoch is even.
	for _, p := range st.History {
		if p.Epoch%2 != 0 {
			t.Fatalf("decimated history kept odd epoch %d", p.Epoch)
		}
	}
}

func TestSchedulerClosedRejectsSubmit(t *testing.T) {
	s := NewScheduler(Options{})
	s.Close()
	if _, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters"}); err == nil {
		t.Fatal("closed scheduler accepted a job")
	}
}

func TestSchedulerParallelExecutorJob(t *testing.T) {
	s := newTestScheduler(t, Options{})
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", Executor: "parallel", MaxEpochs: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := s.Wait(id, waitTimeout)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if !strings.Contains(st.Plan, "parallel") {
		t.Errorf("plan %q does not name the parallel executor", st.Plan)
	}
	// Parallel epochs are wall-clock, not simulated.
	if st.SimSeconds != 0 {
		t.Errorf("parallel job reported %v simulated seconds", st.SimSeconds)
	}
	if st.WallSeconds <= 0 {
		t.Error("parallel job reported no wall-clock time")
	}
	for _, p := range st.History {
		if p.WallSeconds <= 0 {
			t.Fatalf("history point %d has no wall time", p.Epoch)
		}
	}
	// The trained model is registered and servable like any other.
	if _, _, ok := s.Models().Get(id); !ok {
		t.Error("parallel job did not register its model")
	}
}

func TestSchedulerRejectsUnknownExecutor(t *testing.T) {
	s := newTestScheduler(t, Options{})
	if _, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", Executor: "threads"}); err == nil {
		t.Fatal("unknown executor accepted")
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
