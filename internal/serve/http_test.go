package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/nn"
	"dimmwitted/internal/numa"
)

// newTestServer starts an httptest server over a fresh serve.Server.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON posts (or gets) JSON and decodes the response into out.
func doJSON(t *testing.T, client *http.Client, method, url string, in, out any) int {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %v: %v", in, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

// pollJob polls the job endpoint until the job terminates.
func pollJob(t *testing.T, client *http.Client, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for {
		var st JobStatus
		code := doJSON(t, client, http.MethodGet, base+"/v1/jobs/"+id, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, waitTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// trainToCompletion submits a job over HTTP and polls it to done.
func trainToCompletion(t *testing.T, client *http.Client, base string, req TrainRequest) (string, JobStatus) {
	t.Helper()
	var tr trainResponse
	if code := doJSON(t, client, http.MethodPost, base+"/v1/train", req, &tr); code != http.StatusAccepted {
		t.Fatalf("POST /v1/train: status %d", code)
	}
	st := pollJob(t, client, base, tr.JobID)
	if st.State != "done" {
		t.Fatalf("job %s ended %s (err %q)", tr.JobID, st.State, st.Error)
	}
	return tr.JobID, st
}

func TestHTTPTrainPredictRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	client := ts.Client()

	// Train SVM on reuters — the acceptance-criteria demo workload.
	id, st := trainToCompletion(t, client, ts.URL, TrainRequest{
		Model: "svm", Dataset: "reuters", TargetLoss: 0.3, MaxEpochs: 100,
	})
	if !st.Converged {
		t.Fatalf("training did not reach 0.3 (loss %v after %d epochs)", st.Loss, st.Epoch)
	}
	if len(st.History) != st.Epoch {
		t.Errorf("history has %d points for %d epochs", len(st.History), st.Epoch)
	}

	// Predict the training rows back; labels must mostly match.
	ds, err := srv.Scheduler().Catalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	preq := predictRequest{Model: id}
	labels := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx, vals := ds.A.Row(i)
		preq.Examples = append(preq.Examples, exampleJSON{Indices: idx, Values: vals})
		labels = append(labels, ds.Labels[i])
	}
	var presp predictResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict", preq, &presp); code != http.StatusOK {
		t.Fatalf("POST /v1/predict: status %d", code)
	}
	if presp.Count != n || len(presp.Predictions) != n {
		t.Fatalf("predicted %d/%d examples, want %d", presp.Count, len(presp.Predictions), n)
	}
	for i, p := range presp.Predictions {
		if p != 1 && p != -1 {
			t.Fatalf("prediction %d = %v, want ±1", i, p)
		}
	}
	if acc := model.Accuracy(presp.Predictions, labels); acc < 0.8 {
		t.Errorf("training-set accuracy %.2f, want >= 0.8", acc)
	}

	// Dense encoding works too and agrees with sparse.
	dense := make([]float64, ds.Cols())
	idx, vals := ds.A.Row(0)
	for k, j := range idx {
		dense[j] = vals[k]
	}
	var dresp predictResponse
	dreq := predictRequest{Model: id, Examples: []exampleJSON{{Dense: dense}}}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict", dreq, &dresp); code != http.StatusOK {
		t.Fatalf("dense predict: status %d", code)
	}
	if dresp.Predictions[0] != presp.Predictions[0] {
		t.Errorf("dense prediction %v != sparse %v", dresp.Predictions[0], presp.Predictions[0])
	}

	// The model listing shows the trained model.
	var models struct {
		Models []ModelInfo `json:"models"`
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/models", nil, &models); code != http.StatusOK {
		t.Fatal("GET /v1/models failed")
	}
	if len(models.Models) != 1 || models.Models[0].ID != id || models.Models[0].Dim != ds.Cols() {
		t.Errorf("model listing %+v", models.Models)
	}

	// Stats reflect the session.
	var stats statsResponse
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatal("GET /v1/stats failed")
	}
	c := stats.Counters
	if c.Counts[metrics.TrainRequests] != 1 || c.Counts[metrics.JobsDone] != 1 || c.Counts[metrics.PredictRequests] != 2 || c.Counts[metrics.Predictions] != int64(n+1) {
		t.Errorf("counters %+v", c)
	}
	if stats.Queue.Done != 1 || stats.Models != 1 {
		t.Errorf("stats queue %+v models %d", stats.Queue, stats.Models)
	}
	if stats.PlanCache.Misses != 1 {
		t.Errorf("plan cache %+v, want 1 miss", stats.PlanCache)
	}
	if len(stats.Datasets) == 0 {
		t.Error("stats list no datasets")
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()

	var errResp map[string]string
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/job-999", nil, &errResp); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train",
		TrainRequest{Model: "nope", Dataset: "reuters"}, &errResp); code != http.StatusBadRequest {
		t.Errorf("bad model: status %d, want 400", code)
	}
	if errResp["error"] == "" {
		t.Error("error envelope missing message")
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict",
		predictRequest{Model: "job-999", Examples: []exampleJSON{{Dense: []float64{1}}}}, &errResp); code != http.StatusNotFound {
		t.Errorf("unknown model predict: status %d, want 404", code)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict",
		predictRequest{Model: "job-999"}, &errResp); code != http.StatusBadRequest {
		t.Errorf("empty predict: status %d, want 400", code)
	}

	// Bad examples are rejected with 400, not a panic: out-of-range
	// indices, ragged sparse pairs, and mixed encodings whichever
	// sparse half is present.
	id, _ := trainToCompletion(t, client, ts.URL, TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: 1})
	for _, ex := range []exampleJSON{
		{Indices: []int32{1 << 30}, Values: []float64{1}},
		{Indices: []int32{0, 1}, Values: []float64{1}},
		{Indices: []int32{1}, Values: []float64{1}, Dense: []float64{1, 2}},
		{Values: []float64{9, 9}, Dense: []float64{1, 2}},
		{Indices: []int32{0, 1}, Dense: []float64{1, 2}},
	} {
		bad := predictRequest{Model: id, Examples: []exampleJSON{ex}}
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict", bad, &errResp); code != http.StatusBadRequest {
			t.Errorf("bad example %+v: status %d, want 400", ex, code)
		}
	}

	var stats statsResponse
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if stats.Counters.Counts[metrics.HTTPErrors] < 4 {
		t.Errorf("http errors counter %d, want >= 4", stats.Counters.Counts[metrics.HTTPErrors])
	}
}

// equivalenceFixture registers one serving model per prediction path —
// all six GLM specs, the gibbs marginal lookup, and the nn argmax —
// and returns per-model example batches in the model's input encoding.
func equivalenceFixture(t *testing.T, reg *Registry, rng *rand.Rand) map[string][][]model.Example {
	t.Helper()
	const dim = 32
	const reqs, perReq = 8, 3
	batches := map[string][][]model.Example{}

	sparse := func() []model.Example {
		out := make([]model.Example, perReq)
		for i := range out {
			out[i] = model.Example{
				Idx:  []int32{int32(rng.Intn(dim / 2)), int32(dim/2 + rng.Intn(dim/2))},
				Vals: []float64{rng.NormFloat64(), rng.NormFloat64()},
			}
		}
		return out
	}

	for _, name := range []string{"svm", "lr", "ls", "lp", "qp", "sum"} {
		spec, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		id := "glm-" + name
		snap := core.Snapshot{Workload: core.WorkloadGLM, Spec: name, Dataset: "synthetic", X: x}
		if err := reg.Put(id, spec, snap); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < reqs; r++ {
			batches[id] = append(batches[id], sparse())
		}
	}

	// Gibbs: marginal lookup by variable index.
	marg := make([]float64, dim)
	for i := range marg {
		marg[i] = rng.Float64()
	}
	if err := reg.PutScored("gibbs-1", marginalScorer,
		core.Snapshot{Workload: core.WorkloadGibbs, Spec: "gibbs", Dataset: "paleo", X: marg}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < reqs; r++ {
		exs := make([]model.Example, perReq)
		for i := range exs {
			exs[i] = model.Example{Idx: []int32{int32(rng.Intn(dim))}, Vals: []float64{1}}
		}
		batches["gibbs-1"] = append(batches["gibbs-1"], exs)
	}

	// NN: argmax forward pass over a small dense network.
	sizes := []int{6, 4, 3}
	params := nn.NewNetwork(sizes, 7).Params()
	scorer := func(x []float64, examples []model.Example) ([]float64, error) {
		return nn.PredictBatch(sizes, x, examples)
	}
	if err := reg.PutScored("nn-1", scorer,
		core.Snapshot{Workload: core.WorkloadNN, Spec: "nn", Dataset: "synthetic", X: params}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < reqs; r++ {
		exs := make([]model.Example, perReq)
		for i := range exs {
			dense := make([]float64, sizes[0])
			for j := range dense {
				dense[j] = rng.Float64()
			}
			exs[i] = model.DenseExample(dense)
		}
		batches["nn-1"] = append(batches["nn-1"], exs)
	}
	return batches
}

// TestHTTPPredictBitIdentical: predictions served over POST
// /v1/predict are bit-identical (==, not within tolerance) to direct
// registry calls for all six GLM specs plus the gibbs-marginal and
// nn-argmax serving paths, with every request issued concurrently.
func TestHTTPPredictBitIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	client := ts.Client()
	reg := srv.Scheduler().Models()
	batches := equivalenceFixture(t, reg, rand.New(rand.NewSource(42)))

	var wg sync.WaitGroup
	for id, reqs := range batches {
		for r, exs := range reqs {
			want, err := reg.Predict(id, exs)
			if err != nil {
				t.Fatalf("direct predict %s: %v", id, err)
			}
			req := predictRequest{Model: id}
			for _, ex := range exs {
				req.Examples = append(req.Examples, exampleJSON{Indices: ex.Idx, Values: ex.Vals})
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(id string, r int) {
				defer wg.Done()
				hr, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s/%d: %v", id, r, err)
					return
				}
				defer hr.Body.Close()
				var resp predictResponse
				if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil || hr.StatusCode != http.StatusOK {
					t.Errorf("%s/%d: status %d, decode error %v", id, r, hr.StatusCode, err)
					return
				}
				if len(resp.Predictions) != len(want) {
					t.Errorf("%s/%d: %d predictions, want %d", id, r, len(resp.Predictions), len(want))
					return
				}
				for i := range want {
					if resp.Predictions[i] != want[i] {
						t.Errorf("%s/%d example %d: served %v != direct %v (must be bit-identical)",
							id, r, i, resp.Predictions[i], want[i])
					}
				}
			}(id, r)
		}
	}
	wg.Wait()
}

func TestHTTPCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()

	var tr trainResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train",
		TrainRequest{Model: "svm", Dataset: "rcv1", MaxEpochs: 100000}, &tr); code != http.StatusAccepted {
		t.Fatalf("train: status %d", code)
	}
	var st JobStatus
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/"+tr.JobID, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	final := pollJob(t, client, ts.URL, tr.JobID)
	if final.State != "cancelled" {
		t.Fatalf("state %s, want cancelled", final.State)
	}
}

func TestHTTPConcurrentClients(t *testing.T) {
	// The acceptance-criteria scenario: >= 4 concurrent clients, each
	// running a full train -> poll -> predict session against one
	// server. Under -race this exercises the scheduler, plan cache,
	// registry and counters from many goroutines at once.
	srv, ts := newTestServer(t, Options{Machine: numa.Local4})
	const clients = 6

	type result struct {
		id  string
		err error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			// Clients 0-2 share a workload (plan-cache hits); the
			// rest spread over models and datasets.
			reqs := []TrainRequest{
				{Model: "svm", Dataset: "reuters", MaxEpochs: 5},
				{Model: "svm", Dataset: "reuters", MaxEpochs: 5},
				{Model: "svm", Dataset: "reuters", MaxEpochs: 5},
				{Model: "lr", Dataset: "rcv1", MaxEpochs: 3},
				{Model: "ls", Dataset: "music-reg", MaxEpochs: 4},
				{Model: "lp", Dataset: "amazon-lp", MaxEpochs: 4},
			}
			req := reqs[c%len(reqs)]

			var tr trainResponse
			b, _ := json.Marshal(req)
			resp, err := client.Post(ts.URL+"/v1/train", "application/json", bytes.NewReader(b))
			if err != nil {
				results[c] = result{err: err}
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				results[c] = result{err: fmt.Errorf("train status %d: %s", resp.StatusCode, raw)}
				return
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				results[c] = result{err: err}
				return
			}

			deadline := time.Now().Add(waitTimeout)
			for {
				resp, err := client.Get(ts.URL + "/v1/jobs/" + tr.JobID)
				if err != nil {
					results[c] = result{err: err}
					return
				}
				var st JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					results[c] = result{err: err}
					return
				}
				if st.State == "done" {
					break
				}
				if st.State == "failed" || st.State == "cancelled" {
					results[c] = result{err: fmt.Errorf("job %s ended %s: %s", tr.JobID, st.State, st.Error)}
					return
				}
				if time.Now().After(deadline) {
					results[c] = result{err: fmt.Errorf("job %s timed out in %s", tr.JobID, st.State)}
					return
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Each client predicts one example from its dataset.
			ds, err := srv.Scheduler().Catalog().Dataset(req.Dataset)
			if err != nil {
				results[c] = result{err: err}
				return
			}
			idx, vals := ds.A.Row(c % ds.Rows())
			pb, _ := json.Marshal(predictRequest{
				Model:    tr.JobID,
				Examples: []exampleJSON{{Indices: idx, Values: vals}},
			})
			presp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(pb))
			if err != nil {
				results[c] = result{err: err}
				return
			}
			praw, _ := io.ReadAll(presp.Body)
			presp.Body.Close()
			if presp.StatusCode != http.StatusOK {
				results[c] = result{err: fmt.Errorf("predict status %d: %s", presp.StatusCode, praw)}
				return
			}
			var pr predictResponse
			if err := json.Unmarshal(praw, &pr); err != nil {
				results[c] = result{err: err}
				return
			}
			if pr.Count != 1 {
				results[c] = result{err: fmt.Errorf("predict count %d", pr.Count)}
				return
			}
			results[c] = result{id: tr.JobID}
		}(c)
	}
	wg.Wait()

	ids := map[string]bool{}
	for c, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", c, r.err)
		}
		if ids[r.id] {
			t.Fatalf("clients shared job id %s", r.id)
		}
		ids[r.id] = true
	}

	var stats statsResponse
	doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if stats.Counters.Counts[metrics.JobsDone] != clients {
		t.Errorf("jobs done %d, want %d", stats.Counters.Counts[metrics.JobsDone], clients)
	}
	// Hit counts depend on interleaving (identical concurrent jobs may
	// all miss before the first Store), but every job consults the
	// cache exactly once.
	if total := stats.Counters.Counts[metrics.PlanCacheHits] + stats.Counters.Counts[metrics.PlanCacheMisses]; total != clients {
		t.Errorf("plan cache lookups %d, want %d", total, clients)
	}
	if stats.Models != clients {
		t.Errorf("models %d, want %d", stats.Models, clients)
	}
}

// TestHTTPParallelTrainPredictRoundTrip is the acceptance-criteria
// demo: train a model with "executor": "parallel" over the HTTP API,
// then serve predictions from it.
func TestHTTPParallelTrainPredictRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	client := ts.Client()

	id, st := trainToCompletion(t, client, ts.URL, TrainRequest{
		Model: "svm", Dataset: "reuters", Executor: "parallel", TargetLoss: 0.3, MaxEpochs: 100,
	})
	if !st.Converged {
		t.Fatalf("parallel training did not reach 0.3 (loss %v after %d epochs)", st.Loss, st.Epoch)
	}
	if st.SimSeconds != 0 || st.WallSeconds <= 0 {
		t.Errorf("parallel job times sim=%v wall=%v, want 0 and > 0", st.SimSeconds, st.WallSeconds)
	}

	ds, err := srv.Scheduler().Catalog().Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	preq := predictRequest{Model: id}
	labels := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx, vals := ds.A.Row(i)
		preq.Examples = append(preq.Examples, exampleJSON{Indices: idx, Values: vals})
		labels = append(labels, ds.Labels[i])
	}
	var presp predictResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict", preq, &presp); code != http.StatusOK {
		t.Fatalf("POST /v1/predict: status %d", code)
	}
	if acc := model.Accuracy(presp.Predictions, labels); acc < 0.8 {
		t.Errorf("parallel-trained accuracy %.2f, want >= 0.8", acc)
	}
}

// TestHTTPDeleteStopsParallelJob proves DELETE /v1/jobs/{id} stops a
// running parallel job promptly and leaks no goroutines: the worker
// goroutine count returns to the pre-server baseline once the job is
// cancelled and the server shut down.
func TestHTTPDeleteStopsParallelJob(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	client := ts.Client()

	var tr trainResponse
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model: "svm", Dataset: "rcv1", Executor: "parallel", Workers: 4, MaxEpochs: 1 << 20,
	}, &tr)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/train: status %d", code)
	}

	// Wait until the job is genuinely executing parallel epochs.
	deadline := time.Now().Add(waitTimeout)
	for {
		var st JobStatus
		doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+tr.JobID, nil, &st)
		if st.State == "running" && st.Epoch >= 1 {
			break
		}
		if st.State != "queued" && st.State != "running" {
			t.Fatalf("job reached %s before cancellation", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var st JobStatus
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/"+tr.JobID, nil, &st); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}
	if st = pollJob(t, client, ts.URL, tr.JobID); st.State != "cancelled" {
		t.Fatalf("job ended %s, want cancelled", st.State)
	}

	// A 2^20-epoch job only terminates this fast because cancellation
	// interrupts the engine; with the job gone and the server closed,
	// every goroutine it spawned must exit.
	client.CloseIdleConnections()
	ts.Close()
	srv.Close()
	leakDeadline := time.Now().Add(waitTimeout)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after cancel+close", before, runtime.NumGoroutine())
}
