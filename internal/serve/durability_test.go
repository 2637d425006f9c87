package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dimmwitted/internal/ckpt"
	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// testStores opens the durability namespaces under a test dir (the
// tune store is unused here; optimizer persistence has its own tests).
func testStores(t *testing.T) (jobs, models *ckpt.Store) {
	t.Helper()
	jobs, models, _, err := OpenStores(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return jobs, models
}

// waitDone blocks until the job terminates.
func waitJobDone(t *testing.T, s *Scheduler, id string) JobStatus {
	t.Helper()
	st, err := s.Wait(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrashResumeBitIdentical is the acceptance-criterion test: a
// dwserve process dies mid-training, a new process starts over the
// same -store directory, resumes the job it has never heard of, and
// the final loss matches an uninterrupted run bit for bit.
//
// The "crash" is staged deterministically: the mid-training checkpoint
// is written exactly as the dying scheduler's checkpoint policy would
// have written it (same engine, same plan, same codec, same metadata),
// at a pinned epoch — timing a real kill cannot pin the epoch, and the
// resume path neither knows nor cares which process wrote the file.
func TestCrashResumeBitIdentical(t *testing.T) {
	const total, crashAt = 8, 3
	jobs, models := testStores(t)
	req := TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: total, Seed: 42}

	// Process 1: an uninterrupted reference run through the scheduler.
	s1 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models, CheckpointEvery: 1})
	refID, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitJobDone(t, s1, refID)
	if ref.State != "done" || ref.Epoch != total {
		t.Fatalf("reference job: %+v", ref)
	}
	_, refSnap, ok := s1.Models().Get(refID)
	if !ok {
		t.Fatal("reference model not registered")
	}

	// Stage the crash: train the same plan to epoch crashAt and write
	// the checkpoint the dying scheduler would have left behind. The
	// completed reference job's checkpoints were deleted, so the store
	// holds only the "crashed" job.
	wl, _, _, err := s1.buildWorkload(core.WorkloadGLM, req)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWorkload(wl, refSnap.Plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashAt; i++ {
		eng.RunEpoch()
	}
	meta, _ := json.Marshal(req)
	if _, _, err := jobs.Save("job-crashed", eng.Snapshot(), meta); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Process 2: a fresh scheduler over the same store resumes the
	// unknown job.
	s2 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models, CheckpointEvery: 1})
	defer s2.Close()
	newID, err := s2.Resume("job-crashed")
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, s2, newID)
	if st.State != "done" {
		t.Fatalf("resumed job: %+v", st)
	}
	if st.Epoch != total {
		t.Fatalf("resumed job finished at epoch %d, want %d", st.Epoch, total)
	}
	if math.Float64bits(st.Loss) != math.Float64bits(ref.Loss) {
		t.Fatalf("final loss diverged: resumed %v (%016x), uninterrupted %v (%016x)",
			st.Loss, math.Float64bits(st.Loss), ref.Loss, math.Float64bits(ref.Loss))
	}
	if st.Request.WarmStart != "job-crashed" {
		t.Fatalf("resumed request does not record its origin: %+v", st.Request)
	}
	// Completion supersedes both the resumed job's checkpoints and the
	// crashed source job's — crash/resume cycles must not leak
	// generations.
	if _, _, _, err := jobs.Load("job-crashed"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("source job's checkpoints survived completion: %v", err)
	}

	// The resumed model must predict identically to the reference.
	examples := []model.Example{{Idx: []int32{0, 3}, Vals: []float64{1, -0.5}}}
	refPred, err := s2.Models().Predict(refID, examples)
	if err != nil {
		t.Fatal(err)
	}
	gotPred, err := s2.Models().Predict(newID, examples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(refPred[0]) != math.Float64bits(gotPred[0]) {
		t.Fatalf("predictions diverged: %v vs %v", refPred[0], gotPred[0])
	}
}

// TestCancelledJobResumesFromCheckpoint exercises the live checkpoint
// policy end to end: a running job is cancelled (DELETE semantics),
// its periodic checkpoint survives, and Resume continues from at least
// the checkpointed epoch.
func TestCancelledJobResumesFromCheckpoint(t *testing.T) {
	jobs, models := testStores(t)
	s := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models, CheckpointEvery: 1})
	defer s.Close()

	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "rcv1", MaxEpochs: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var epoch int
	for time.Now().Before(deadline) {
		st, _ := s.Status(id)
		if epoch = st.Epoch; epoch >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if epoch < 2 {
		t.Fatalf("job never reached epoch 2")
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	done, _ := s.Done(id)
	<-done

	snap, _, _, err := jobs.Load(id)
	if err != nil {
		t.Fatalf("cancelled job left no checkpoint: %v", err)
	}
	if snap.Epoch < 1 {
		t.Fatalf("checkpoint at epoch %d", snap.Epoch)
	}

	newID, err := s.Resume(id)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed job continues from the checkpoint, not from zero.
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := s.Status(newID)
		if st.Epoch >= snap.Epoch {
			break
		}
		if st.State == "failed" {
			t.Fatalf("resumed job failed: %s", st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := s.Status(newID)
	if st.Epoch < snap.Epoch {
		t.Fatalf("resumed job at epoch %d, checkpoint was %d", st.Epoch, snap.Epoch)
	}
	_ = s.Cancel(newID)
}

// TestWarmStartContinuesTraining checks the /v1/train warm_start path:
// k epochs cold plus N−k warm must equal N epochs cold, bit for bit.
func TestWarmStartContinuesTraining(t *testing.T) {
	_, ts := newTestServer(t, Options{Machine: numa.Local2})
	client := ts.Client()

	train := func(req TrainRequest) JobStatus {
		var tr trainResponse
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", req, &tr); code != http.StatusAccepted {
			t.Fatalf("train: HTTP %d", code)
		}
		var st JobStatus
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+tr.JobID, nil, &st)
			if st.State == "done" || st.State == "failed" {
				return st
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %s stuck in %s", tr.JobID, st.State)
		return st
	}

	full := train(TrainRequest{Model: "lr", Dataset: "reuters", MaxEpochs: 6})
	half := train(TrainRequest{Model: "lr", Dataset: "reuters", MaxEpochs: 3})
	cont := train(TrainRequest{WarmStart: half.ID, MaxEpochs: 6})

	if cont.State != "done" || cont.Epoch != 6 {
		t.Fatalf("warm-started job: %+v", cont)
	}
	if math.Float64bits(cont.Loss) != math.Float64bits(full.Loss) {
		t.Fatalf("warm-started loss %v (%016x) != full-run loss %v (%016x)",
			cont.Loss, math.Float64bits(cont.Loss), full.Loss, math.Float64bits(full.Loss))
	}
}

// TestWarmStartRejectsConflicts pins the request-reconciliation rules.
func TestWarmStartRejectsConflicts(t *testing.T) {
	jobs, models := testStores(t)
	s := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models})
	defer s.Close()
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s, id)

	cases := []struct {
		name string
		req  TrainRequest
		want string
	}{
		{"unknown reference", TrainRequest{WarmStart: "nope"}, "matches no registered model"},
		{"executor override", TrainRequest{WarmStart: id, Executor: "parallel"}, "cannot be overridden"},
		{"machine override", TrainRequest{WarmStart: id, Machine: "local8"}, "cannot be overridden"},
		{"seed override", TrainRequest{WarmStart: id, Seed: 9}, "cannot be overridden"},
		{"model mismatch", TrainRequest{WarmStart: id, Model: "lr"}, "request says model"},
		{"dataset mismatch", TrainRequest{WarmStart: id, Dataset: "rcv1"}, "request says dataset"},
		{"workload mismatch", TrainRequest{WarmStart: id, Workload: "nn"}, "request says workload"},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Matching identity fields are accepted.
	id2, err := s.Submit(TrainRequest{WarmStart: id, Model: "svm", Dataset: "reuters", MaxEpochs: 2})
	if err != nil {
		t.Fatalf("matching identity rejected: %v", err)
	}
	if st := waitJobDone(t, s, id2); st.State != "done" {
		t.Fatalf("warm job: %+v", st)
	}
}

// TestRestartDoesNotReuseStoredJobIDs pins the id-collision fix: a
// restarted scheduler's job counter starts past every id the previous
// process left in the stores, so new jobs can neither overwrite a dead
// process's models nor delete its resumable checkpoints.
func TestRestartDoesNotReuseStoredJobIDs(t *testing.T) {
	jobs, models := testStores(t)
	s1 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models, CheckpointEvery: 1})
	id1, err := s1.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s1, id1)
	// Leave a "crashed" checkpoint behind under a job-N id as well.
	_, snap, ok := s1.Models().Get(id1)
	if !ok {
		t.Fatal("model missing")
	}
	if _, _, err := jobs.Save("job-7", snap, nil); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models})
	defer s2.Close()
	id2, err := s2.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 || id2 != "job-8" {
		t.Fatalf("restarted scheduler issued %q (previous process used %q and job-7)", id2, id1)
	}
	waitJobDone(t, s2, id2)
	// The dead process's checkpoint must still be there (the new job's
	// completion deletes only its own id).
	if _, _, _, err := jobs.Load("job-7"); err != nil {
		t.Fatalf("restart lost the crashed job's checkpoint: %v", err)
	}
}

// TestWarmStartRejectsExhaustedBudget pins the no-op fix: a total
// epoch target the snapshot has already reached is an error, not a
// zero-epoch "done" job.
func TestWarmStartRejectsExhaustedBudget(t *testing.T) {
	s := NewScheduler(Options{Machine: numa.Local2})
	defer s.Close()
	id, err := s.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s, id)
	for _, budget := range []int{1, 3} {
		if _, err := s.Submit(TrainRequest{WarmStart: id, MaxEpochs: budget}); err == nil ||
			!strings.Contains(err.Error(), "must exceed") {
			t.Errorf("max_epochs %d accepted for an epoch-3 snapshot: %v", budget, err)
		}
	}
	if _, err := s.Submit(TrainRequest{WarmStart: id, MaxEpochs: 4}); err != nil {
		t.Errorf("max_epochs 4 rejected for an epoch-3 snapshot: %v", err)
	}
}

// TestRegistryPersistsAcrossRestart checks the -store model registry:
// a new process serves (and lists) models a previous process trained,
// loading them lazily on first predict.
func TestRegistryPersistsAcrossRestart(t *testing.T) {
	jobs, models := testStores(t)
	examples := []model.Example{{Idx: []int32{1, 2}, Vals: []float64{0.5, 1}}}

	s1 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models})
	id, err := s1.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s1, id)
	want, err := s1.Models().Predict(id, examples)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models})
	defer s2.Close()
	if n := s2.Models().Len(); n != 1 {
		t.Fatalf("restarted registry sees %d models, want 1", n)
	}
	got, err := s2.Models().Predict(id, examples)
	if err != nil {
		t.Fatalf("lazy load on first predict: %v", err)
	}
	if math.Float64bits(got[0]) != math.Float64bits(want[0]) {
		t.Fatalf("restored prediction %v != original %v", got[0], want[0])
	}
	infos := s2.Models().List()
	if len(infos) != 1 || infos[0].ID != id || infos[0].Spec != "svm" {
		t.Fatalf("restarted listing: %+v", infos)
	}
	if s2.Counters().Snapshot().Counts[metrics.CheckpointRestores] == 0 {
		t.Fatal("lazy load did not count a checkpoint restore")
	}
}

// TestListDoesNotPinDiskModels pins the lazy-load contract: listing a
// restarted registry must not cache every store-resident snapshot in
// memory — only a prediction does.
func TestListDoesNotPinDiskModels(t *testing.T) {
	jobs, models := testStores(t)
	s1 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models})
	id, err := s1.Submit(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s1, id)
	s1.Close()

	s2 := NewScheduler(Options{Machine: numa.Local2, Checkpoints: jobs, Models: models})
	defer s2.Close()
	reg := s2.Models()
	if got := reg.List(); len(got) != 1 {
		t.Fatalf("listing: %+v", got)
	}
	if cached := reg.memLen(); cached != 0 {
		t.Fatalf("List cached %d models; loading should wait for the first predict", cached)
	}
	if _, err := reg.Predict(id, []model.Example{{Idx: []int32{0}, Vals: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	if cached := reg.memLen(); cached != 1 {
		t.Fatalf("predict cached %d models, want 1", cached)
	}
}

// TestRegistryPredictDuringRestoredPut hammers the registry read path
// while restored snapshots are re-registered — the race the -race CI
// run guards: predictions must never fail or tear while a Put swaps
// the entry underneath them.
func TestRegistryPredictDuringRestoredPut(t *testing.T) {
	_, models := testStores(t)
	spec := model.NewSVM()
	snap := core.Snapshot{Workload: core.WorkloadGLM, Spec: "svm", Dataset: "reuters", Epoch: 1, X: make([]float64, 64)}
	for i := range snap.X {
		snap.X[i] = float64(i) * 0.01
	}
	reg := NewRegistry()
	reg.Persist(models, nil)
	reg.Put("m", spec, snap)

	// The restored snapshot a registry Put mid-flight would install.
	restored, _, _, err := models.Load("m")
	if err != nil {
		t.Fatal(err)
	}

	examples := []model.Example{{Idx: []int32{3, 9}, Vals: []float64{1, 2}}}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := reg.Predict("m", examples); err != nil {
					t.Errorf("predict during put: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	for i := 0; i < 50; i++ {
		reg.Put("m", spec, restored)
	}
	wg.Wait()
}

// TestResumeEndpointErrors pins the HTTP status codes of the resume
// route.
func TestResumeEndpointErrors(t *testing.T) {
	jobs, models := testStores(t)
	srv, ts := newTestServer(t, Options{Machine: numa.Local2, Checkpoints: jobs, Models: models, CheckpointEvery: 1})
	client := ts.Client()

	var errResp map[string]string
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs/ghost/resume", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("resume of unknown job: HTTP %d (%v)", code, errResp)
	}

	id, err := srv.Scheduler().Submit(TrainRequest{Model: "svm", Dataset: "rcv1", MaxEpochs: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs/"+id+"/resume", nil, &errResp); code != http.StatusConflict {
		t.Fatalf("resume of active job: HTTP %d (%v)", code, errResp)
	}
	_ = srv.Scheduler().Cancel(id)

	// Without a store the route reports the missing configuration.
	_, ts2 := newTestServer(t, Options{Machine: numa.Local2})
	if code := doJSON(t, ts2.Client(), http.MethodPost, ts2.URL+"/v1/jobs/job-1/resume", nil, &errResp); code != http.StatusBadRequest {
		t.Fatalf("resume without store: HTTP %d (%v)", code, errResp)
	}
	if !strings.Contains(errResp["error"], "-store") {
		t.Fatalf("error does not point at -store: %v", errResp)
	}
}
