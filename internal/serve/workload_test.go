package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// waitDone submits a request and waits for the job to finish
// successfully.
func waitDone(t *testing.T, s *Scheduler, req TrainRequest) JobStatus {
	t.Helper()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job %s ended %s (error %q)", id, st.State, st.Error)
	}
	return st
}

// Gibbs jobs must train via the scheduler on both executors and
// surface marginals plus marginal summaries in job status.
func TestGibbsJobBothExecutors(t *testing.T) {
	s := NewScheduler(Options{})
	defer s.Close()
	exact, err := factor.ExactMarginals(factor.Cycle5())
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []string{"simulated", "parallel"} {
		st := waitDone(t, s, TrainRequest{
			Workload: "gibbs", Dataset: "cycle5", Executor: exec, MaxEpochs: 2000, Seed: 7,
		})
		if st.Workload != "gibbs" {
			t.Errorf("%s: status workload %q", exec, st.Workload)
		}
		if len(st.Marginals) != len(exact) {
			t.Fatalf("%s: %d marginals, want %d", exec, len(st.Marginals), len(exact))
		}
		for v := range exact {
			if math.Abs(st.Marginals[v]-exact[v]) > 0.08 {
				t.Errorf("%s: marginal[%d] = %.3f, exact %.3f", exec, v, st.Marginals[v], exact[v])
			}
		}
		if _, ok := st.Metrics["mean_marginal"]; !ok {
			t.Errorf("%s: metrics missing mean_marginal: %v", exec, st.Metrics)
		}
		if st.Epoch != 2000 {
			t.Errorf("%s: ran %d sweeps, want the full 2000 (no TargetLoss stop)", exec, st.Epoch)
		}
	}
	snap := s.Counters().Snapshot()
	if snap.Counts[metrics.GibbsSweeps] == 0 || snap.Counts[metrics.GibbsSamples] == 0 {
		t.Errorf("gibbs counters not recorded: %+v", snap)
	}
	// The pooled marginals serve index-lookup predictions.
	jobs := s.Jobs()
	id := jobs[len(jobs)-1].ID
	preds, err := s.Models().Predict(id, []model.Example{{Idx: []int32{3}, Vals: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preds[0]-exact[3]) > 0.08 {
		t.Errorf("marginal prediction %.3f, exact %.3f", preds[0], exact[3])
	}
	if _, err := s.Models().Predict(id, []model.Example{{Idx: []int32{0, 1}, Vals: []float64{1, 1}}}); err == nil {
		t.Error("multi-index gibbs example accepted")
	}
}

// NN jobs must train via the scheduler on both executors, report
// accuracy in job status, and serve class predictions.
func TestNNJobBothExecutors(t *testing.T) {
	s := NewScheduler(Options{})
	defer s.Close()
	for _, exec := range []string{"simulated", "parallel"} {
		st := waitDone(t, s, TrainRequest{
			Workload: "nn", Dataset: "mnist-small", Executor: exec, MaxEpochs: 8, Seed: 4,
		})
		if st.Workload != "nn" {
			t.Errorf("%s: status workload %q", exec, st.Workload)
		}
		acc, ok := st.Metrics["accuracy"]
		if !ok {
			t.Fatalf("%s: metrics missing accuracy: %v", exec, st.Metrics)
		}
		if acc < 0.7 {
			t.Errorf("%s: accuracy %.3f, want >= 0.7", exec, acc)
		}
		if st.Loss > 1.5 {
			t.Errorf("%s: loss %.3f did not drop", exec, st.Loss)
		}
	}
	snap := s.Counters().Snapshot()
	if snap.Counts[metrics.NNEpochs] == 0 || snap.Counts[metrics.NNExamples] == 0 {
		t.Errorf("nn counters not recorded: %+v", snap)
	}
	// Class predictions from the registered snapshot.
	jobs := s.Jobs()
	id := jobs[0].ID
	ds, _, err := s.Catalog().NNDataset("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	examples := []model.Example{model.DenseExample(ds.Images[0]), model.DenseExample(ds.Images[1])}
	preds, err := s.Models().Predict(id, examples)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, p := range preds {
		if int(p) == ds.Labels[i] {
			hits++
		}
	}
	if hits == 0 {
		t.Error("nn snapshot predicted neither probe example")
	}
}

// NN jobs with TargetLoss must stop early like GLM ones.
func TestNNJobTargetLoss(t *testing.T) {
	s := NewScheduler(Options{})
	defer s.Close()
	st := waitDone(t, s, TrainRequest{
		Workload: "nn", Dataset: "mnist-small", MaxEpochs: 40, TargetLoss: 1.0, Seed: 4,
	})
	if !st.Converged {
		t.Errorf("job did not converge: loss %.3f after %d epochs", st.Loss, st.Epoch)
	}
	if st.Epoch == 40 {
		t.Error("TargetLoss did not stop the job early")
	}
}

func TestWorkloadSubmitValidation(t *testing.T) {
	s := NewScheduler(Options{})
	defer s.Close()
	cases := []TrainRequest{
		{Workload: "no-such", Dataset: "cycle5"},
		{Workload: "gibbs", Dataset: "reuters"}, // GLM dataset, not a graph
		{Workload: "gibbs", Dataset: "cycle5", Model: "svm"},
		{Workload: "gibbs", Dataset: "cycle5", Access: "row"},
		{Workload: "nn", Dataset: "cycle5"}, // graph, not an image corpus
		{Workload: "nn", Dataset: "mnist-small", Model: "lr"},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d (%+v) accepted", i, req)
		}
	}
}

// The plan cache must never hand a GLM plan to a Gibbs or NN job for a
// colliding dataset name: the workload kind is part of the key.
func TestPlanCacheKeyIncludesWorkloadKind(t *testing.T) {
	spec, err := model.ByName("svm")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewCatalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	glmKey := KeyFor(spec, ds, numa.Local2, core.ExecSimulated)

	// An adversarially named graph colliding with the GLM dataset.
	g, err := factor.NewGraph(factor.Cycle5().NumVars, factor.Cycle5().Factors)
	if err != nil {
		t.Fatal(err)
	}
	g.Name = "reuters"
	gibbsKey := KeyForWorkload(factor.NewWorkload(g), numa.Local2, core.ExecSimulated)

	if glmKey == gibbsKey {
		t.Fatal("GLM and Gibbs plan-cache keys collide for the same dataset name")
	}
	if gibbsKey.Workload != core.WorkloadGibbs || glmKey.Workload != core.WorkloadGLM {
		t.Errorf("keys do not carry workload kinds: %+v vs %+v", glmKey, gibbsKey)
	}
	c := NewPlanCache()
	c.Store(glmKey, core.Plan{Access: model.RowWise})
	if _, ok := c.Lookup(gibbsKey); ok {
		t.Fatal("gibbs key hit a cached GLM plan")
	}
}

// Two gibbs jobs for the same graph share one optimizer decision.
func TestGibbsPlanCacheHit(t *testing.T) {
	s := NewScheduler(Options{})
	defer s.Close()
	waitDone(t, s, TrainRequest{Workload: "gibbs", Dataset: "pairs4", MaxEpochs: 5})
	waitDone(t, s, TrainRequest{Workload: "gibbs", Dataset: "pairs4", MaxEpochs: 5})
	stats := s.Plans().Stats()
	if stats.Hits == 0 {
		t.Errorf("second gibbs job missed the plan cache: %+v", stats)
	}
}

// End-to-end over HTTP: train a gibbs and an nn job through POST
// /v1/train, read workload metrics from job status, and see the new
// registries and counters in /v1/stats.
func TestHTTPWorkloadRoundTrip(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	train := func(body string) string {
		resp, err := http.Post(ts.URL+"/v1/train", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("train returned %d", resp.StatusCode)
		}
		var tr trainResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr.JobID
	}
	gibbsID := train(`{"workload":"gibbs","dataset":"cycle5","max_epochs":200,"executor":"parallel"}`)
	nnID := train(`{"workload":"nn","dataset":"mnist-small","max_epochs":6}`)
	for _, id := range []string{gibbsID, nnID} {
		if _, err := srv.Scheduler().Wait(id, 60*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	var st JobStatus
	resp, err := http.Get(ts.URL + "/v1/jobs/" + gibbsID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Workload != "gibbs" || len(st.Marginals) == 0 {
		t.Errorf("gibbs job status missing workload/marginals: %+v", st)
	}

	var stats statsResponse
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Graphs) == 0 || len(stats.NNDatasets) == 0 {
		t.Errorf("stats missing workload registries: %+v", stats)
	}
	if stats.Counters.Counts[metrics.GibbsSamples] == 0 || stats.Counters.GibbsSamplesPerSec == 0 {
		t.Errorf("stats missing gibbs counters: %+v", stats.Counters)
	}
	if stats.Counters.Counts[metrics.NNEpochs] == 0 {
		t.Errorf("stats missing nn counters: %+v", stats.Counters)
	}
}
