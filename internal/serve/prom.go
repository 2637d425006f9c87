package serve

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
)

// handleMetrics serves GET /metrics: the Prometheus text exposition of
// the serving counters, queue and cache gauges, per-route latency
// histograms, and the engine phase timers accumulated from traced
// jobs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewPromWriter(w)

	c := s.counters.Snapshot()
	p.Gauge("dimmwitted_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.Counters("dimmwitted_", metrics.ServeTable(), metrics.CounterSeries{Values: c.Counts[:]})
	p.Gauge("dimmwitted_gibbs_samples_per_second", "Cumulative parallel-executor sampling throughput.", c.GibbsSamplesPerSec)

	q := s.sched.Stats()
	p.Gauge("dimmwitted_scheduler_slots", "Concurrent training slots.", float64(q.Slots))
	p.Family("dimmwitted_jobs", "Jobs currently recorded, by lifecycle state.", "gauge")
	for _, st := range []struct {
		state string
		n     int
	}{
		{"queued", q.Queued}, {"running", q.Running}, {"done", q.Done},
		{"failed", q.Failed}, {"cancelled", q.Cancelled},
	} {
		p.Sample("dimmwitted_jobs", fmt.Sprintf("{state=%q}", st.state), float64(st.n))
	}
	p.Gauge("dimmwitted_models", "Models registered for serving.", float64(s.sched.Models().Len()))

	if fb := s.sched.Feedback(); fb != nil {
		ts := fb.Stats()
		p.Counter("dimmwitted_optimizer_observations_total", "Epoch wall-clock observations recorded by the self-tuning optimizer.", float64(ts.Observations))
		p.Gauge("dimmwitted_optimizer_keys", "Distinct plan observation keys in the feedback store.", float64(ts.Keys))
		p.Counter("dimmwitted_optimizer_explorations_total", "Plan decisions where the epsilon draw ran the runner-up.", float64(ts.Explorations))
	}

	// Route latency histograms: one family, one series per route. The
	// map is construction-time constant; sort for a stable exposition.
	routes := make([]string, 0, len(s.latency))
	for pattern := range s.latency {
		routes = append(routes, pattern)
	}
	sort.Strings(routes)
	p.Family("dimmwitted_http_request_duration_seconds", "HTTP handler latency by route.", "histogram")
	for _, pattern := range routes {
		p.Histogram("dimmwitted_http_request_duration_seconds",
			metrics.PromLabel("route", pattern), s.latency[pattern].Export())
	}

	p.Family("dimmwitted_predict_stage_seconds", "POST /v1/predict latency by stage: body read, body decode, scoring, reply encode and write.", "histogram")
	for i, name := range predictStageNames {
		p.Histogram("dimmwitted_predict_stage_seconds", fmt.Sprintf("stage=%q", name), s.stages[i].Export())
	}

	// Engine phase timers from traced jobs, labeled by executor kind
	// and phase — the /metrics view of the span recorder's aggregates.
	p.Family("dimmwitted_engine_phase_seconds_total", "Engine wall clock attributed to each phase by traced jobs.", "counter")
	for _, kind := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
		for _, t := range s.sched.PhaseTotals(kind).Totals() {
			p.Sample("dimmwitted_engine_phase_seconds_total",
				fmt.Sprintf("{executor=%q,phase=%q}", kind.String(), t.Phase), t.Seconds)
		}
	}
	p.Family("dimmwitted_engine_phase_spans_total", "Spans recorded for each engine phase by traced jobs.", "counter")
	for _, kind := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
		for _, t := range s.sched.PhaseTotals(kind).Totals() {
			p.Sample("dimmwitted_engine_phase_spans_total",
				fmt.Sprintf("{executor=%q,phase=%q}", kind.String(), t.Phase), float64(t.Count))
		}
	}
}
