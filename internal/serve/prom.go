package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
)

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promValue formats a sample value. Prometheus accepts Go's shortest
// float form plus +Inf/-Inf/NaN.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// promWriter accumulates one exposition document. Each metric family
// is announced once (# HELP / # TYPE) before its samples.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family emits the HELP/TYPE header for a metric family.
func (p *promWriter) family(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line; labels are pre-rendered ("" for none).
func (p *promWriter) sample(name, labels string, v float64) {
	p.printf("%s%s %s\n", name, labels, promValue(v))
}

// counter and gauge emit single-sample families.
func (p *promWriter) counter(name, help string, v float64) {
	p.family(name, help, "counter")
	p.sample(name, "", v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.family(name, help, "gauge")
	p.sample(name, "", v)
}

// histogram emits one labeled histogram series from an Export:
// cumulative le buckets, _sum and _count. The family header must have
// been emitted by the caller (several label sets share one family).
func (p *promWriter) histogram(name, labels string, e metrics.HistogramExport) {
	for _, b := range e.Buckets {
		le := promValue(b.LE)
		lbl := fmt.Sprintf("{%s,le=%q}", labels, le)
		if labels == "" {
			lbl = fmt.Sprintf("{le=%q}", le)
		}
		p.sample(name+"_bucket", lbl, float64(b.Count))
	}
	wrap := ""
	if labels != "" {
		wrap = "{" + labels + "}"
	}
	p.sample(name+"_sum", wrap, e.SumSeconds)
	p.sample(name+"_count", wrap, float64(e.Count))
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of
// the serving counters, queue and cache gauges, per-route latency
// histograms, and the engine phase timers accumulated from traced
// jobs. Everything is hand-rendered — the repo deliberately has no
// client-library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := &promWriter{w: w}

	c := s.counters.Snapshot()
	p.gauge("dimmwitted_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.counter("dimmwitted_train_requests_total", "Accepted training requests.", float64(c.TrainRequests))
	p.counter("dimmwitted_predict_requests_total", "Prediction requests served.", float64(c.PredictRequests))
	p.counter("dimmwitted_predictions_total", "Individual predictions returned.", float64(c.Predictions))
	p.counter("dimmwitted_jobs_enqueued_total", "Jobs entering the queue.", float64(c.JobsEnqueued))
	p.counter("dimmwitted_jobs_done_total", "Jobs finished successfully.", float64(c.JobsDone))
	p.counter("dimmwitted_jobs_failed_total", "Jobs ended in an error.", float64(c.JobsFailed))
	p.counter("dimmwitted_jobs_cancelled_total", "Jobs cancelled before completion.", float64(c.JobsCancelled))
	p.counter("dimmwitted_plan_cache_hits_total", "Optimizer invocations skipped by the plan cache.", float64(c.PlanCacheHits))
	p.counter("dimmwitted_plan_cache_misses_total", "Cost-based optimizer runs.", float64(c.PlanCacheMisses))
	pc := s.sched.Plans().Stats()
	p.gauge("dimmwitted_plan_cache_size", "Plans currently cached.", float64(pc.Size))
	p.counter("dimmwitted_plan_cache_evictions_total", "Cached plans dropped by the LRU size cap.", float64(pc.Evictions))
	p.counter("dimmwitted_plan_cache_invalidations_total", "Cached plans dropped because a feedback update flipped the optimizer's winner.", float64(pc.Invalidations))
	p.counter("dimmwitted_http_errors_total", "Requests answered with a non-2xx status.", float64(c.HTTPErrors))
	p.counter("dimmwitted_gibbs_sweeps_total", "Full Gibbs chain sweeps.", float64(c.GibbsSweeps))
	p.counter("dimmwitted_gibbs_samples_total", "Gibbs variable samples drawn.", float64(c.GibbsSamples))
	p.gauge("dimmwitted_gibbs_samples_per_second", "Cumulative parallel-executor sampling throughput.", c.GibbsSamplesPerSec)
	p.counter("dimmwitted_nn_epochs_total", "Network-training epochs.", float64(c.NNEpochs))
	p.counter("dimmwitted_nn_examples_total", "Examples back-propagated.", float64(c.NNExamples))
	p.counter("dimmwitted_checkpoint_writes_total", "Durable snapshot writes.", float64(c.CheckpointWrites))
	p.counter("dimmwitted_checkpoint_bytes_total", "Bytes written to durable snapshots.", float64(c.CheckpointBytes))
	p.counter("dimmwitted_checkpoint_restores_total", "States restored from durable snapshots.", float64(c.CheckpointRestores))
	p.counter("dimmwitted_checkpoint_errors_total", "Failed checkpoint writes or restores.", float64(c.CheckpointErrors))
	p.counter("dimmwitted_append_requests_total", "Accepted dataset-append chunks.", float64(c.AppendRequests))
	p.counter("dimmwitted_rows_appended_total", "Rows ingested through dataset appends.", float64(c.RowsAppended))
	p.counter("dimmwitted_dataset_versions_total", "Dataset views published by appends.", float64(c.DatasetVersions))
	p.counter("dimmwitted_shadow_evals_total", "Candidate models shadow-evaluated on a held-out tail.", float64(c.ShadowEvals))
	p.counter("dimmwitted_models_promoted_total", "Candidates that passed shadow evaluation and went live.", float64(c.ModelsPromoted))
	p.counter("dimmwitted_models_rolled_back_total", "Regressing canaries rejected by shadow evaluation.", float64(c.ModelsRolledBack))
	p.counter("dimmwitted_online_adopts_total", "Grown dataset views adopted by running online jobs.", float64(c.OnlineAdopts))

	q := s.sched.Stats()
	p.gauge("dimmwitted_scheduler_slots", "Concurrent training slots.", float64(q.Slots))
	p.family("dimmwitted_jobs", "Jobs currently recorded, by lifecycle state.", "gauge")
	for _, st := range []struct {
		state string
		n     int
	}{
		{"queued", q.Queued}, {"running", q.Running}, {"done", q.Done},
		{"failed", q.Failed}, {"cancelled", q.Cancelled},
	} {
		p.sample("dimmwitted_jobs", fmt.Sprintf("{state=%q}", st.state), float64(st.n))
	}
	p.gauge("dimmwitted_models", "Models registered for serving.", float64(s.sched.Models().Len()))

	if fb := s.sched.Feedback(); fb != nil {
		ts := fb.Stats()
		p.counter("dimmwitted_optimizer_observations_total", "Epoch wall-clock observations recorded by the self-tuning optimizer.", float64(ts.Observations))
		p.gauge("dimmwitted_optimizer_keys", "Distinct plan observation keys in the feedback store.", float64(ts.Keys))
		p.counter("dimmwitted_optimizer_explorations_total", "Plan decisions where the epsilon draw ran the runner-up.", float64(ts.Explorations))
	}

	// Route latency histograms: one family, one series per route. The
	// map is construction-time constant; sort for a stable exposition.
	routes := make([]string, 0, len(s.latency))
	for pattern := range s.latency {
		routes = append(routes, pattern)
	}
	sort.Strings(routes)
	p.family("dimmwitted_http_request_duration_seconds", "HTTP handler latency by route.", "histogram")
	for _, pattern := range routes {
		p.histogram("dimmwitted_http_request_duration_seconds",
			fmt.Sprintf("route=%q", promEscape(pattern)), s.latency[pattern].Export())
	}

	p.family("dimmwitted_predict_stage_seconds", "POST /v1/predict latency by stage: body read, body decode, scoring, reply encode and write.", "histogram")
	for i, name := range predictStageNames {
		p.histogram("dimmwitted_predict_stage_seconds", fmt.Sprintf("stage=%q", name), s.stages[i].Export())
	}

	// Engine phase timers from traced jobs, labeled by executor kind
	// and phase — the /metrics view of the span recorder's aggregates.
	p.family("dimmwitted_engine_phase_seconds_total", "Engine wall clock attributed to each phase by traced jobs.", "counter")
	for _, kind := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
		for _, t := range s.sched.PhaseTotals(kind).Totals() {
			p.sample("dimmwitted_engine_phase_seconds_total",
				fmt.Sprintf("{executor=%q,phase=%q}", kind.String(), t.Phase), t.Seconds)
		}
	}
	p.family("dimmwitted_engine_phase_spans_total", "Spans recorded for each engine phase by traced jobs.", "counter")
	for _, kind := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
		for _, t := range s.sched.PhaseTotals(kind).Totals() {
			p.sample("dimmwitted_engine_phase_spans_total",
				fmt.Sprintf("{executor=%q,phase=%q}", kind.String(), t.Phase), float64(t.Count))
		}
	}
}
