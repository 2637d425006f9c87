package serve

import (
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/tune"
)

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

// TestFeedbackInvalidatesFlippedWinner: once the feedback store proves
// a non-static candidate cheaper, the very next job of the same
// signature runs that candidate as "measured".
func TestFeedbackInvalidatesFlippedWinner(t *testing.T) {
	fb := tune.NewStore(tune.Options{MinObservations: 1, Epsilon: -1})
	s := newTestScheduler(t, Options{Feedback: fb})
	req := TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2}

	st1 := waitDone(t, s, req)
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
	if st1.Plan == rival.String() {
		t.Fatalf("job 1 already ran the rival %q", st1.Plan)
	}
	fb.Record(rivalKey(t, ds, rival), tune.Sample{SecondsPerEpoch: 1e-9})

	st2 := waitDone(t, s, req)
	if st2.PlanSource != "measured" {
		t.Fatalf("job 2 plan source %q, want measured", st2.PlanSource)
	}
	if st2.Plan != rival.String() {
		t.Fatalf("job 2 ran %q, want the measured rival %q", st2.Plan, rival.String())
	}
	if st2.PredictedSecondsPerEpoch <= 0 {
		t.Fatalf("job 2 predicted seconds/epoch = %v, want > 0", st2.PredictedSecondsPerEpoch)
	}
}

// TestFeedbackExploresRepeatJobs: the epsilon draw happens on every
// unforced job, not only on a signature's first, so repeats of one
// request keep measuring the runner-up. A job that forces its access
// method skips the optimizer and the draw.
func TestFeedbackExploresRepeatJobs(t *testing.T) {
	fb := tune.NewStore(tune.Options{Epsilon: 1})
	s := newTestScheduler(t, Options{Feedback: fb})
	req := TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 2}
	for i := 1; i <= 3; i++ {
		if st := waitDone(t, s, req); st.PlanSource != "explore" {
			t.Fatalf("job %d plan source %q, want explore", i, st.PlanSource)
		}
	}
	if got := fb.Stats().Explorations; got != 3 {
		t.Fatalf("explorations = %d after 3 jobs at epsilon 1, want 3", got)
	}

	forced := req
	forced.Access = "row"
	if st := waitDone(t, s, forced); st.PlanSource != "forced" {
		t.Fatalf("forced job plan source %q, want forced", st.PlanSource)
	}
	if got := fb.Stats().Explorations; got != 3 {
		t.Fatalf("explorations = %d after a forced job, want still 3", got)
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
