package serve

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/model"
)

var (
	helpRe  = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe  = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
	valueRe = regexp.MustCompile(`^(NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
)

// parseSample splits a sample line into name, label body and value
// text. Label VALUES may contain any characters (the route label holds
// "{id}"), so the label block ends at the last `"}` before the value,
// not at the first close brace.
func parseSample(line string) (name, labels, value string, ok bool) {
	name = nameRe.FindString(line)
	if name == "" {
		return "", "", "", false
	}
	rest := line[len(name):]
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, `"}`)
		if end < 0 {
			return "", "", "", false
		}
		labels = rest[1 : end+1]
		rest = rest[end+2:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", "", "", false
	}
	value = rest[1:]
	return name, labels, value, valueRe.MatchString(value)
}

// parseExposition validates the Prometheus text format line by line
// and returns every sample as name -> labels -> value. It enforces the
// format's structural rules: HELP/TYPE pairs announce a family before
// its samples, sample lines parse, and label pairs are well-formed.
func parseExposition(t *testing.T, body string) map[string]map[string]float64 {
	t.Helper()
	samples := map[string]map[string]float64{}
	announced := map[string]bool{}
	var lastHelp string
	sc := bufio.NewScanner(strings.NewReader(body))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") {
			m := helpRe.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed HELP: %q", line, text)
			}
			lastHelp = m[1]
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			m := typeRe.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			if m[1] != lastHelp {
				t.Fatalf("line %d: TYPE %s not preceded by its HELP (last HELP %s)", line, m[1], lastHelp)
			}
			announced[m[1]] = true
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // comment
		}
		name, labels, value, ok := parseSample(text)
		if !ok {
			t.Fatalf("line %d: malformed sample: %q", line, text)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !announced[name] && !announced[family] {
			t.Fatalf("line %d: sample %s has no preceding TYPE", line, name)
		}
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				if !labelRe.MatchString(pair) {
					t.Fatalf("line %d: malformed label pair %q in %q", line, pair, text)
				}
			}
		}
		v, err := strconv.ParseFloat(strings.Replace(value, "Inf", "inf", 1), 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", line, value, err)
		}
		if samples[name] == nil {
			samples[name] = map[string]float64{}
		}
		if _, dup := samples[name][labels]; dup {
			t.Fatalf("line %d: duplicate series %s{%s}", line, name, labels)
		}
		samples[name][labels] = v
	}
	return samples
}

// familyHeaders maps each family announced in an exposition to its
// TYPE and HELP text.
func familyHeaders(body string) map[string][2]string {
	out := map[string][2]string{}
	help := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			out[name] = [2]string{typ, help[name]}
		}
	}
	return out
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// TestMetricsPrometheusExposition drives real traffic through a traced
// job and checks /metrics parses as valid Prometheus text exposition
// with the families the scrape config depends on, and that histogram
// series obey the format's invariants (cumulative monotone buckets,
// +Inf bucket equal to _count).
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()

	id := traceJob(t, client, ts.URL, 5)
	if st := pollJob(t, client, ts.URL, id); st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, string(raw))

	// Every family, with its TYPE and HELP: scrape configs and
	// dashboards key on these strings, so none may change silently.
	want := map[string][2]string{
		"dimmwitted_uptime_seconds":                {"gauge", "Seconds since the server started."},
		"dimmwitted_train_requests_total":          {"counter", "Accepted training requests."},
		"dimmwitted_predict_requests_total":        {"counter", "Prediction requests served."},
		"dimmwitted_predictions_total":             {"counter", "Individual predictions returned."},
		"dimmwitted_jobs_enqueued_total":           {"counter", "Jobs entering the queue."},
		"dimmwitted_jobs_done_total":               {"counter", "Jobs finished successfully."},
		"dimmwitted_jobs_failed_total":             {"counter", "Jobs ended in an error."},
		"dimmwitted_jobs_cancelled_total":          {"counter", "Jobs cancelled before completion."},
		"dimmwitted_http_errors_total":             {"counter", "Requests answered with a non-2xx status."},
		"dimmwitted_gibbs_sweeps_total":            {"counter", "Full Gibbs chain sweeps."},
		"dimmwitted_gibbs_samples_total":           {"counter", "Gibbs variable samples drawn."},
		"dimmwitted_gibbs_samples_per_second":      {"gauge", "Cumulative parallel-executor sampling throughput."},
		"dimmwitted_nn_epochs_total":               {"counter", "Network-training epochs."},
		"dimmwitted_nn_examples_total":             {"counter", "Examples back-propagated."},
		"dimmwitted_checkpoint_writes_total":       {"counter", "Durable snapshot writes."},
		"dimmwitted_checkpoint_bytes_total":        {"counter", "Bytes written to durable snapshots."},
		"dimmwitted_checkpoint_restores_total":     {"counter", "States restored from durable snapshots."},
		"dimmwitted_checkpoint_errors_total":       {"counter", "Failed checkpoint writes or restores."},
		"dimmwitted_append_requests_total":         {"counter", "Accepted dataset-append chunks."},
		"dimmwitted_rows_appended_total":           {"counter", "Rows ingested through dataset appends."},
		"dimmwitted_dataset_versions_total":        {"counter", "Dataset views published by appends."},
		"dimmwitted_shadow_evals_total":            {"counter", "Candidate models shadow-evaluated on a held-out tail."},
		"dimmwitted_models_promoted_total":         {"counter", "Candidates that passed shadow evaluation and went live."},
		"dimmwitted_models_rolled_back_total":      {"counter", "Regressing canaries rejected by shadow evaluation."},
		"dimmwitted_online_adopts_total":           {"counter", "Grown dataset views adopted by running online jobs."},
		"dimmwitted_scheduler_slots":               {"gauge", "Concurrent training slots."},
		"dimmwitted_jobs":                          {"gauge", "Jobs currently recorded, by lifecycle state."},
		"dimmwitted_models":                        {"gauge", "Models registered for serving."},
		"dimmwitted_optimizer_observations_total":  {"counter", "Epoch wall-clock observations recorded by the self-tuning optimizer."},
		"dimmwitted_optimizer_keys":                {"gauge", "Distinct plan observation keys in the feedback store."},
		"dimmwitted_optimizer_explorations_total":  {"counter", "Plan decisions where the epsilon draw ran the runner-up."},
		"dimmwitted_http_request_duration_seconds": {"histogram", "HTTP handler latency by route."},
		"dimmwitted_predict_stage_seconds":         {"histogram", "POST /v1/predict latency by stage: body read, body decode, scoring, reply encode and write."},
		"dimmwitted_engine_phase_seconds_total":    {"counter", "Engine wall clock attributed to each phase by traced jobs."},
		"dimmwitted_engine_phase_spans_total":      {"counter", "Spans recorded for each engine phase by traced jobs."},
	}
	headers := familyHeaders(string(raw))
	for name, th := range want {
		got, ok := headers[name]
		if !ok {
			t.Errorf("exposition is missing family %s", name)
			continue
		}
		if got != th {
			t.Errorf("family %s: TYPE/HELP %q, want %q", name, got, th)
		}
		if len(samples[name]) == 0 && len(samples[name+"_count"]) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}
	for name := range headers {
		if _, ok := want[name]; !ok {
			t.Errorf("exposition has unpinned family %s", name)
		}
	}

	// On a quiescent server every /v1/stats counter reads the same as
	// its dimmwitted_<key>_total sample. gibbs_samples_per_sec is the
	// derived rate, exported as a gauge.
	var stats struct {
		Counters map[string]float64 `json:"counters"`
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	wantKeys := []string{
		"train_requests", "predict_requests", "predictions", "jobs_enqueued",
		"jobs_done", "jobs_failed", "jobs_cancelled", "http_errors",
		"gibbs_sweeps", "gibbs_samples",
		"nn_epochs", "nn_examples", "checkpoint_writes", "checkpoint_bytes",
		"checkpoint_restores", "checkpoint_errors", "append_requests",
		"rows_appended", "dataset_versions", "shadow_evals", "models_promoted",
		"models_rolled_back", "online_adopts", "gibbs_samples_per_sec",
	}
	if len(stats.Counters) != len(wantKeys) {
		t.Errorf("/v1/stats counters has %d keys, want %d: %v", len(stats.Counters), len(wantKeys), stats.Counters)
	}
	for _, key := range wantKeys {
		v, ok := stats.Counters[key]
		if !ok {
			t.Errorf("/v1/stats counters is missing %s", key)
			continue
		}
		name := "dimmwitted_" + key + "_total"
		if key == "gibbs_samples_per_sec" {
			name = "dimmwitted_gibbs_samples_per_second"
		}
		if got, ok := samples[name][""]; !ok || got != v {
			t.Errorf("%s = %v (present %v), /v1/stats counters.%s = %v", name, got, ok, key, v)
		}
	}
	if got := samples["dimmwitted_jobs_done_total"][""]; got < 1 {
		t.Fatalf("jobs_done_total = %v, want >= 1", got)
	}
	// The finished job's epochs must have landed in the feedback store.
	if got := samples["dimmwitted_optimizer_observations_total"][""]; got < 1 {
		t.Fatalf("optimizer_observations_total = %v, want >= 1 after a finished job", got)
	}

	// The traced parallel job must have fed the engine phase timers.
	var phaseSeries int
	for labels, v := range samples["dimmwitted_engine_phase_seconds_total"] {
		if strings.Contains(labels, `executor="parallel"`) {
			phaseSeries++
			if v < 0 {
				t.Fatalf("negative phase seconds: %s %v", labels, v)
			}
		}
	}
	if phaseSeries == 0 {
		t.Fatal("no parallel-executor phase timers after a traced parallel job")
	}

	// Histogram invariants per route: buckets cumulative and monotone
	// in le, +Inf bucket == _count, _sum present.
	buckets := samples["dimmwitted_http_request_duration_seconds_bucket"]
	counts := samples["dimmwitted_http_request_duration_seconds_count"]
	sums := samples["dimmwitted_http_request_duration_seconds_sum"]
	if len(counts) == 0 || len(sums) == 0 {
		t.Fatal("histogram missing _count or _sum series")
	}
	type rb struct {
		le    float64
		count float64
	}
	byRoute := map[string][]rb{}
	for labels, v := range buckets {
		route, le := "", math.NaN()
		for _, pair := range splitLabels(labels) {
			k, val, _ := strings.Cut(pair, "=")
			val = strings.Trim(val, `"`)
			switch k {
			case "route":
				route = val
			case "le":
				if val == "+Inf" {
					le = math.Inf(1)
				} else {
					le, _ = strconv.ParseFloat(val, 64)
				}
			}
		}
		byRoute[route] = append(byRoute[route], rb{le, v})
	}
	for route, bs := range byRoute {
		var total float64
		var maxLE float64 = math.Inf(-1)
		var inf float64 = -1
		for _, b := range bs {
			if math.IsInf(b.le, 1) {
				inf = b.count
			} else if b.le > maxLE {
				maxLE, total = b.le, b.count
			}
		}
		if inf < 0 {
			t.Fatalf("route %q has no +Inf bucket", route)
		}
		if total > inf {
			t.Fatalf("route %q: finite bucket %v exceeds +Inf bucket %v", route, total, inf)
		}
		if c, ok := counts[`route="`+route+`"`]; !ok || c != inf {
			t.Fatalf("route %q: _count %v != +Inf bucket %v", route, c, inf)
		}
	}
}

// TestMetricsScrapeStability scrapes /metrics repeatedly while jobs
// run; every scrape must parse.
func TestMetricsScrapeStability(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()
	id := traceJob(t, client, ts.URL, 20)
	deadline := time.Now().Add(waitTimeout)
	for i := 0; ; i++ {
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		parseExposition(t, string(raw))
		var st JobStatus
		doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st)
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after %v", st.State, waitTimeout)
		}
	}
}

// TestPredictStageHistograms: every predict is timed per stage it
// reaches, in /metrics as one dimmwitted_predict_stage_seconds family
// and in /v1/stats as predict_stages.
func TestPredictStageHistograms(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	client := ts.Client()
	spec, _ := model.ByName("ls")
	if err := srv.Scheduler().Models().Put("m", spec, core.Snapshot{Workload: core.WorkloadGLM, Spec: "ls", X: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"model":"m","examples":[{"indices":[1],"values":[1]}]}`, // all four stages
		`{"model":"m","examples":[{"dense":[1,1]}]}`,              // all four stages
		`{"model":"gone","examples":[{"dense":[1]}]}`,             // read, decode and score
		`{"model":"m","examples":[`,                               // read and decode
	} {
		resp, err := client.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	want := map[string]int64{"read": 4, "decode": 4, "score": 3, "encode": 2}

	var stats statsResponse
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	for stage, n := range want {
		if got := stats.PredictStages[stage].Count; got != n {
			t.Errorf("/v1/stats predict_stages[%s].count = %d, want %d", stage, got, n)
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, string(raw))
	for stage, n := range want {
		label := `stage="` + stage + `"`
		count := samples["dimmwitted_predict_stage_seconds_count"][label]
		inf := samples["dimmwitted_predict_stage_seconds_bucket"][label+`,le="+Inf"`]
		if count != float64(n) || inf != count {
			t.Errorf("stage %s: _count %v, +Inf bucket %v, want %d", stage, count, inf, n)
		}
		if sum, ok := samples["dimmwitted_predict_stage_seconds_sum"][label]; !ok || sum < 0 {
			t.Errorf("stage %s: _sum %v (present %v)", stage, sum, ok)
		}
	}
}
