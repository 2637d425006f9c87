package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// onlineRows generates deterministic sparse classification rows whose
// labels follow a fixed hidden model, so SGD on them actually learns.
func onlineRows(seed int64, n, cols int) []data.Row {
	rng := rand.New(rand.NewSource(seed))
	truth := make([]float64, cols)
	tr := rand.New(rand.NewSource(99))
	for j := range truth {
		truth[j] = tr.NormFloat64()
	}
	rows := make([]data.Row, n)
	for i := range rows {
		nnz := 2 + rng.Intn(4)
		seen := map[int32]bool{}
		score := 0.0
		for len(rows[i].Indices) < nnz {
			c := int32(rng.Intn(cols))
			if seen[c] {
				continue
			}
			seen[c] = true
			v := rng.NormFloat64()
			rows[i].Indices = append(rows[i].Indices, c)
			rows[i].Values = append(rows[i].Values, v)
			score += v * truth[c]
		}
		if score >= 0 {
			rows[i].Label = 1
		} else {
			rows[i].Label = -1
		}
	}
	return rows
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPromoteDecision pins the canary gate's rule: first publication
// always promotes, later candidates may not regress the live held-out
// loss beyond the slack, and diverged (non-finite) candidates never
// promote — not even as the first publication.
func TestPromoteDecision(t *testing.T) {
	cases := []struct {
		name             string
		cand, live       float64
		hasLive, promote bool
	}{
		{"first publication", 1.0, 0, false, true},
		{"improvement", 0.5, 1.0, true, true},
		{"equal", 1.0, 1.0, true, true},
		{"within slack", 1.0 * (1 + promoteSlack), 1.0, true, true},
		{"beyond slack", 1.02, 1.0, true, false},
		{"clear regression", 5.0, 1.0, true, false},
		{"nan candidate", math.NaN(), 1.0, true, false},
		{"nan first", math.NaN(), 0, false, false},
		{"inf candidate", math.Inf(1), 1.0, true, false},
	}
	for _, c := range cases {
		if got := promoteDecision(c.cand, c.live, c.hasLive); got != c.promote {
			t.Errorf("%s: promoteDecision(%v, %v, %v) = %v, want %v",
				c.name, c.cand, c.live, c.hasLive, got, c.promote)
		}
	}
}

// TestShadowGateNeverPromotesRegression drives publishOnline directly:
// after a good model goes live, a regressing candidate (and a diverged
// one) must be rolled back, leaving the good model serving; a candidate
// published twice scores exactly the same loss both times.
func TestShadowGateNeverPromotesRegression(t *testing.T) {
	const cols = 8
	s := newTestScheduler(t, Options{})
	h, err := s.Catalog().Stream("gate-stream", cols, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(onlineRows(21, 30, cols)); err != nil {
		t.Fatal(err)
	}
	j := &job{
		id:      "job-gate",
		kind:    core.WorkloadGLM,
		spec:    model.NewSVM(),
		curView: h.View(),
		req:     TrainRequest{Model: "svm", Dataset: "gate-stream", Online: true},
	}

	good := core.Snapshot{Workload: core.WorkloadGLM, Spec: "svm", Dataset: "gate-stream",
		X: make([]float64, cols)}
	if err := s.publishOnline(j, good); err != nil {
		t.Fatal(err)
	}
	if _, snap, ok := s.models.Get(j.id); !ok || snap.X[0] != 0 {
		t.Fatal("first candidate was not promoted")
	}

	// A wildly regressing candidate: every weight huge, hinge loss
	// explodes on the misclassified half.
	bad := good
	bad.X = make([]float64, cols)
	for i := range bad.X {
		bad.X[i] = 1e6
	}
	if err := s.publishOnline(j, bad); err != nil {
		t.Fatal(err)
	}
	// A diverged candidate: NaN weights.
	diverged := good
	diverged.X = make([]float64, cols)
	diverged.X[0] = math.NaN()
	if err := s.publishOnline(j, diverged); err != nil {
		t.Fatal(err)
	}

	_, live, ok := s.models.Get(j.id)
	if !ok {
		t.Fatal("live model vanished")
	}
	for i, x := range live.X {
		if x != 0 {
			t.Fatalf("live X[%d] = %v — a regressing canary was promoted", i, x)
		}
	}
	if j.online.published != 3 || j.online.promoted != 1 || j.online.rolledBack != 2 {
		t.Fatalf("progress = %+v, want 3 published / 1 promoted / 2 rolled back", j.online)
	}
	c := s.Counters().Snapshot()
	if c.Counts[metrics.ShadowEvals] != 3 || c.Counts[metrics.ModelsPromoted] != 1 || c.Counts[metrics.ModelsRolledBack] != 2 {
		t.Fatalf("counters = evals %d promoted %d rolledback %d, want 3/1/2",
			c.Counts[metrics.ShadowEvals], c.Counts[metrics.ModelsPromoted], c.Counts[metrics.ModelsRolledBack])
	}

	// The shadow eval is deterministic: one candidate published twice
	// scores bitwise the same held-out loss both times.
	cand := good
	cand.X = make([]float64, cols)
	for i := range cand.X {
		cand.X[i] = float64(i+1) / 3
		if i%2 == 1 {
			cand.X[i] = -cand.X[i]
		}
	}
	var losses [2]float64
	for k := range losses {
		if err := s.publishOnline(j, cand); err != nil {
			t.Fatal(err)
		}
		losses[k] = j.online.candLoss
	}
	if math.IsNaN(losses[0]) || math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
		t.Fatalf("one candidate scored %v, then %v", losses[0], losses[1])
	}
}

// TestPlanKeyMissesAfterAppend: an append publishes a new dataset
// version, and both the serve plan-cache key and the tune-store key
// carry it — a plan cached for the smaller matrix is never reused.
func TestPlanKeyMissesAfterAppend(t *testing.T) {
	const cols = 12
	h, err := NewCatalog().Stream("key-stream", cols, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(onlineRows(31, 25, cols)); err != nil {
		t.Fatal(err)
	}
	v1 := h.View()
	spec := model.NewSVM()
	k1 := KeyFor(spec, v1, numa.Local2, core.ExecSimulated)
	if k1.DatasetVersion != 2 {
		t.Fatalf("plan key version = %d, want 2 after the first append", k1.DatasetVersion)
	}
	c := NewPlanCache()
	c.Store(k1, core.Plan{Machine: numa.Local2})

	if _, err := h.Append(onlineRows(32, 25, cols)); err != nil {
		t.Fatal(err)
	}
	v2 := h.View()
	k2 := KeyFor(spec, v2, numa.Local2, core.ExecSimulated)
	if k2.DatasetVersion != v1.Version+1 {
		t.Fatalf("plan key version = %d, want %d after the append", k2.DatasetVersion, v1.Version+1)
	}
	if k1 == k2 {
		t.Fatal("append did not change the plan key")
	}
	if _, ok := c.Lookup(k2); ok {
		t.Fatal("grown dataset hit the plan cached for the smaller matrix")
	}
	if _, ok := c.Lookup(k1); !ok {
		t.Fatal("the old view's cached plan disappeared")
	}

	// The tune-store key separates the same way.
	tk1, tk2 := rivalKey(t, v1, core.Plan{Machine: numa.Local2}), rivalKey(t, v2, core.Plan{Machine: numa.Local2})
	if tk1 == tk2 {
		t.Fatal("append did not change the tune key")
	}
	if tk1.DatasetVersion == tk2.DatasetVersion {
		t.Fatalf("tune keys share dataset version %d", tk1.DatasetVersion)
	}
}

// TestOnlineJobTrainsAcrossAppends is the tentpole integration: a
// running online job adopts three appended chunks without restarting,
// publishes versioned models through the shadow gate, reports its
// streaming state, and serves a model that beats the zero model.
func TestOnlineJobTrainsAcrossAppends(t *testing.T) {
	const cols = 20
	s := newTestScheduler(t, Options{})
	h, err := s.Catalog().Stream("grow-stream", cols, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(onlineRows(41, 40, cols)); err != nil {
		t.Fatal(err)
	}

	id, err := s.Submit(TrainRequest{
		Model: "svm", Dataset: "grow-stream", Online: true,
		MaxEpochs: 1 << 30, PublishEvery: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	totalRows := 40
	for chunk := 0; chunk < 3; chunk++ {
		v, err := h.Append(onlineRows(int64(42+chunk), 30, cols))
		if err != nil {
			t.Fatal(err)
		}
		totalRows += 30
		waitUntil(t, "chunk adoption", func() bool {
			st, ok := s.Status(id)
			return ok && st.Online != nil && st.Online.DatasetVersion >= v.Version
		})
	}
	waitUntil(t, "a promotion", func() bool {
		st, ok := s.Status(id)
		return ok && st.Online != nil && st.Online.VersionsPromoted >= 1
	})

	st, ok := s.Status(id)
	if !ok {
		t.Fatal("job vanished")
	}
	if st.Online.Rows != totalRows {
		t.Fatalf("online rows = %d, want %d", st.Online.Rows, totalRows)
	}
	if st.Online.VersionsPublished < st.Online.VersionsPromoted {
		t.Fatalf("published %d < promoted %d", st.Online.VersionsPublished, st.Online.VersionsPromoted)
	}
	if c := s.Counters().Snapshot(); c.Counts[metrics.OnlineAdopts] < 3 {
		t.Fatalf("online adopts = %d, want >= 3 (one per appended chunk)", c.Counts[metrics.OnlineAdopts])
	}

	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id, waitTimeout); err != nil {
		t.Fatal(err)
	}
	// The promoted model serves: trained on the stream's column count.
	_, snap, ok := s.Models().Get(id)
	if !ok {
		t.Fatal("no model registered after promotions")
	}
	if len(snap.X) != cols {
		t.Fatalf("served model dimension = %d, want %d", len(snap.X), cols)
	}
	// And it learned: on every appended row it beats the zero model.
	spec := model.NewSVM()
	if got, zero := spec.Loss(h.View(), snap.X), spec.Loss(h.View(), make([]float64, cols)); got >= zero {
		t.Fatalf("served model loss %v is not below the zero model's %v", got, zero)
	}
}

// TestOnlineMatchesStaticLoss is the loss-parity property: an online
// job over a stream ingested in three chunks converges to exactly the
// loss of a static job on the same rows pre-materialized in one chunk
// (same seed, same plan, simulated executor — training is
// deterministic, so parity is bitwise).
func TestOnlineMatchesStaticLoss(t *testing.T) {
	const cols, n, epochs = 16, 90, 12
	rows := onlineRows(51, n, cols)

	s := newTestScheduler(t, Options{})
	chunked, err := s.Catalog().Stream("parity-online", cols, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 30 {
		if _, err := chunked.Append(rows[i : i+30]); err != nil {
			t.Fatal(err)
		}
	}
	single, err := s.Catalog().Stream("parity-static", cols, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Append(rows); err != nil {
		t.Fatal(err)
	}

	run := func(dataset string, online bool) JobStatus {
		t.Helper()
		id, err := s.Submit(TrainRequest{
			Model: "svm", Dataset: dataset, Online: online,
			MaxEpochs: epochs, Seed: 5, Access: "row", Executor: "simulated",
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Wait(id, waitTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("%s job ended %s: %s", dataset, st.State, st.Error)
		}
		return st
	}
	onlineSt := run("parity-online", true)
	staticSt := run("parity-static", false)

	if onlineSt.Plan != staticSt.Plan {
		t.Fatalf("plans diverged:\nonline %s\nstatic %s", onlineSt.Plan, staticSt.Plan)
	}
	if onlineSt.Epoch != epochs || staticSt.Epoch != epochs {
		t.Fatalf("epochs = %d/%d, want %d", onlineSt.Epoch, staticSt.Epoch, epochs)
	}
	if onlineSt.Loss != staticSt.Loss {
		t.Fatalf("loss parity broken: online %v, static %v", onlineSt.Loss, staticSt.Loss)
	}
	if onlineSt.Online == nil || onlineSt.Online.VersionsPromoted < 1 {
		t.Fatalf("online status = %+v, want at least one promotion", onlineSt.Online)
	}
}

// TestHTTPAppendEndpoint covers the ingestion route's contract:
// stream creation, version bumps, and the error taxonomy (unknown
// dataset without cols, frozen registry names, malformed rows).
func TestHTTPAppendEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	client := ts.Client()
	url := ts.URL + "/v1/datasets/http-stream/append"

	sparse := []appendRowJSON{
		{Indices: []int32{0, 3}, Values: []float64{1, -1}, Label: 1},
		{Indices: []int32{1}, Values: []float64{2}, Label: -1},
	}

	// Unknown dataset without cols: 404, nothing created.
	if code := doJSON(t, client, http.MethodPost, url, appendRequest{Rows: sparse}, nil); code != http.StatusNotFound {
		t.Fatalf("append without cols = %d, want 404", code)
	}
	// First append with cols creates the stream at version 2.
	var resp appendResponse
	if code := doJSON(t, client, http.MethodPost, url, appendRequest{Rows: sparse, Cols: 5}, &resp); code != http.StatusOK {
		t.Fatalf("creating append = %d, want 200", code)
	}
	if resp.Version != 2 || resp.Rows != 2 || resp.Appended != 2 {
		t.Fatalf("creating append response = %+v, want version 2, 2 rows", resp)
	}
	// A later chunk (cols omitted) bumps the version.
	if code := doJSON(t, client, http.MethodPost, url, appendRequest{Rows: sparse[:1]}, &resp); code != http.StatusOK {
		t.Fatalf("second append failed: %d", code)
	}
	if resp.Version != 3 || resp.Rows != 3 || resp.Appended != 1 {
		t.Fatalf("second append response = %+v, want version 3, 3 rows", resp)
	}

	// Frozen registry dataset: 409.
	frozen := ts.URL + "/v1/datasets/reuters/append"
	if code := doJSON(t, client, http.MethodPost, frozen, appendRequest{Rows: sparse, Cols: 5}, nil); code != http.StatusConflict {
		t.Fatalf("append to registry dataset = %d, want 409", code)
	}
	// Malformed rows: 400, version unchanged.
	bad := []appendRowJSON{{Indices: []int32{0}, Values: []float64{1}, Dense: []float64{1, 2, 3, 4, 5}}}
	if code := doJSON(t, client, http.MethodPost, url, appendRequest{Rows: bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("mixed dense+sparse row = %d, want 400", code)
	}
	if code := doJSON(t, client, http.MethodPost, url, appendRequest{Rows: []appendRowJSON{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty append = %d, want 400", code)
	}
	if h, err := srv.Scheduler().Catalog().Handle("http-stream"); err != nil || h.Version() != 3 {
		t.Fatalf("rejected appends changed the stream: %v v%d", err, h.Version())
	}

	// The ingested stream trains end to end over HTTP.
	var tresp trainResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model: "svm", Dataset: "http-stream", Online: true, MaxEpochs: 6,
	}, &tresp); code != http.StatusAccepted {
		t.Fatalf("online train over HTTP = %d, want 202", code)
	}
	st := pollJob(t, client, ts.URL, tresp.JobID)
	if st.State != "done" {
		t.Fatalf("online job ended %s: %s", st.State, st.Error)
	}
	if st.Online == nil || st.Online.DatasetVersion != 3 {
		t.Fatalf("online status = %+v, want dataset version 3", st.Online)
	}
}

// TestTwoJobsTrainWhileAppending is the dataset-aliasing regression
// under the race detector: two jobs train over the same stream (one
// online, one static on a pinned view) while an appender grows it.
// Before views were frozen, ByName handed every job the same mutable
// *Dataset and this interleaving tore the matrix.
func TestTwoJobsTrainWhileAppending(t *testing.T) {
	const cols = 18
	s := newTestScheduler(t, Options{})
	h, err := s.Catalog().Stream("race-stream", cols, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(onlineRows(61, 50, cols)); err != nil {
		t.Fatal(err)
	}

	online, err := s.Submit(TrainRequest{
		Model: "svm", Dataset: "race-stream", Online: true,
		MaxEpochs: 1 << 30, PublishEvery: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	static, err := s.Submit(TrainRequest{
		Model: "lr", Dataset: "race-stream", MaxEpochs: 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	for chunk := 0; chunk < 4; chunk++ {
		v, err := h.Append(onlineRows(int64(62+chunk), 25, cols))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "adoption during concurrent training", func() bool {
			st, ok := s.Status(online)
			return ok && st.Online != nil && st.Online.DatasetVersion >= v.Version
		})
	}

	st, err := s.Wait(static, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("static job ended %s: %s", st.State, st.Error)
	}
	// The static job trained its submission-time view: 50 rows, not
	// whatever the stream grew to.
	if _, snap, ok := s.Models().Get(static); !ok || len(snap.X) != cols {
		t.Fatalf("static model missing or wrong dimension")
	}
	if err := s.Cancel(online); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(online, waitTimeout); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineStatusOmitsNonFiniteCandidateLoss: publishOnline marks a
// diverged candidate with a NaN loss; the job status must still encode
// (GET /v1/jobs/{id} would otherwise fail), leaving the loss out while
// versions_rolled_back counts the rejection.
func TestOnlineStatusOmitsNonFiniteCandidateLoss(t *testing.T) {
	for _, loss := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st := JobStatus{ID: "job-1", Online: onlineProgress{candLoss: loss, liveLoss: 0.5, rolledBack: 1}.status()}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("candidate loss %v: status does not encode: %v", loss, err)
		}
		if strings.Contains(string(b), "last_candidate_loss") || !strings.Contains(string(b), `"versions_rolled_back":1`) {
			t.Fatalf("candidate loss %v: status %s", loss, b)
		}
	}
	if got := (onlineProgress{candLoss: 0.25}).status().LastCandidateLoss; got != 0.25 {
		t.Fatalf("finite candidate loss reported as %v, want 0.25", got)
	}
}
