package metrics

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// counter is an atomic.Int64 padded out to a full 64-byte cache line.
// The serving counters below are bumped from every request and worker
// goroutine; packed tightly, eight of them share a cache line and each
// Add invalidates its neighbours' cached copies (false sharing). The
// padding keeps each counter on its own line — see
// BenchmarkCountersPadding for the measured difference.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// CounterDesc declares one counter of a set: Key names it in the
// set's JSON object and, as <prefix><Key>_total, its Prometheus
// family; Help is that family's HELP text.
type CounterDesc struct {
	Key, Help string
}

// ServeCounter indexes one serving counter: a row of serveTable and a
// slot of ServeCounters and ServeSnapshot.Counts.
type ServeCounter int

// The serving counters, in exposition order.
const (
	TrainRequests ServeCounter = iota
	PredictRequests
	Predictions
	JobsEnqueued
	JobsDone
	JobsFailed
	JobsCancelled
	PlanCacheHits
	PlanCacheMisses
	HTTPErrors
	GibbsSweeps
	GibbsSamples
	NNEpochs
	NNExamples
	CheckpointWrites
	CheckpointBytes
	CheckpointRestores
	CheckpointErrors
	AppendRequests
	RowsAppended
	DatasetVersions
	ShadowEvals
	ModelsPromoted
	ModelsRolledBack
	OnlineAdopts
	numServeCounters
)

// serveTable is the one declaration of every serving counter: /v1/stats
// reports counters.<key> and /metrics dimmwitted_<key>_total.
var serveTable = [numServeCounters]CounterDesc{
	TrainRequests:      {"train_requests", "Accepted training requests."},
	PredictRequests:    {"predict_requests", "Prediction requests served."},
	Predictions:        {"predictions", "Individual predictions returned."},
	JobsEnqueued:       {"jobs_enqueued", "Jobs entering the queue."},
	JobsDone:           {"jobs_done", "Jobs finished successfully."},
	JobsFailed:         {"jobs_failed", "Jobs ended in an error."},
	JobsCancelled:      {"jobs_cancelled", "Jobs cancelled before completion."},
	PlanCacheHits:      {"plan_cache_hits", "Optimizer invocations skipped by the plan cache."},
	PlanCacheMisses:    {"plan_cache_misses", "Cost-based optimizer runs."},
	HTTPErrors:         {"http_errors", "Requests answered with a non-2xx status."},
	GibbsSweeps:        {"gibbs_sweeps", "Full Gibbs chain sweeps."},
	GibbsSamples:       {"gibbs_samples", "Gibbs variable samples drawn."},
	NNEpochs:           {"nn_epochs", "Network-training epochs."},
	NNExamples:         {"nn_examples", "Examples back-propagated."},
	CheckpointWrites:   {"checkpoint_writes", "Durable snapshot writes."},
	CheckpointBytes:    {"checkpoint_bytes", "Bytes written to durable snapshots."},
	CheckpointRestores: {"checkpoint_restores", "States restored from durable snapshots."},
	CheckpointErrors:   {"checkpoint_errors", "Failed checkpoint writes or restores."},
	AppendRequests:     {"append_requests", "Accepted dataset-append chunks."},
	RowsAppended:       {"rows_appended", "Rows ingested through dataset appends."},
	DatasetVersions:    {"dataset_versions", "Dataset views published by appends."},
	ShadowEvals:        {"shadow_evals", "Candidate models shadow-evaluated on a held-out tail."},
	ModelsPromoted:     {"models_promoted", "Candidates that passed shadow evaluation and went live."},
	ModelsRolledBack:   {"models_rolled_back", "Regressing canaries rejected by shadow evaluation."},
	OnlineAdopts:       {"online_adopts", "Grown dataset views adopted by running online jobs."},
}

// ServeTable returns the serving counters' declarations, indexed by
// ServeCounter. Callers must not modify it.
func ServeTable() []CounterDesc { return serveTable[:] }

// ServeCounters are the serving subsystem's monotonically increasing
// operation counters. All methods are safe for concurrent use; the
// zero value is ready.
type ServeCounters struct {
	counts [numServeCounters]counter
	// The throughput rate is computed over parallel-executor epochs
	// only (simulated epochs' wall clock measures the cost simulator,
	// not sampling), so their samples and wall time accumulate apart.
	gibbsParSamples counter
	gibbsWallNanos  counter
}

// Inc records one event of counter k.
func (c *ServeCounters) Inc(k ServeCounter) { c.counts[k].Add(1) }

// PredictRequest records one prediction request serving n examples.
func (c *ServeCounters) PredictRequest(n int) {
	c.counts[PredictRequests].Add(1)
	c.counts[Predictions].Add(int64(n))
}

// GibbsEpoch records one Gibbs epoch: sweeps chains each completed a
// full sweep drawing samples variable samples. wall is the epoch's
// measured sampling time for parallel-executor epochs and zero for
// simulated ones, whose wall clock is simulator overhead.
func (c *ServeCounters) GibbsEpoch(sweeps int, samples int64, wall time.Duration) {
	c.counts[GibbsSweeps].Add(int64(sweeps))
	c.counts[GibbsSamples].Add(samples)
	if wall > 0 {
		c.gibbsParSamples.Add(samples)
		c.gibbsWallNanos.Add(int64(wall))
	}
}

// NNEpoch records one network-training epoch over examples examples.
func (c *ServeCounters) NNEpoch(examples int64) {
	c.counts[NNEpochs].Add(1)
	c.counts[NNExamples].Add(examples)
}

// CheckpointWrite records one durable snapshot write of n bytes (a
// mid-training job checkpoint or a registry model persist).
func (c *ServeCounters) CheckpointWrite(n int) {
	c.counts[CheckpointWrites].Add(1)
	c.counts[CheckpointBytes].Add(int64(n))
}

// AppendRequest records one accepted dataset-append request ingesting
// n rows, which published one new dataset version.
func (c *ServeCounters) AppendRequest(n int) {
	c.counts[AppendRequests].Add(1)
	c.counts[RowsAppended].Add(int64(n))
	c.counts[DatasetVersions].Add(1)
}

// ServeSnapshot is a point-in-time copy of the counters. It encodes to
// JSON as one object: every serveTable key, then the derived
// gibbs_samples_per_sec.
type ServeSnapshot struct {
	// Counts holds each counter's value, indexed by ServeCounter.
	Counts [numServeCounters]int64
	// GibbsSamplesPerSec is the cumulative sampling throughput of
	// parallel-executor epochs over their measured wall time (zero
	// until a parallel gibbs job has run).
	GibbsSamplesPerSec float64
}

// gibbsRateKey is the JSON key of the derived sampling rate.
const gibbsRateKey = "gibbs_samples_per_sec"

// Snapshot returns a consistent-enough copy for reporting: each field
// is read atomically, the set is not a single linearization point.
func (c *ServeCounters) Snapshot() ServeSnapshot {
	var s ServeSnapshot
	loadCounts(c.counts[:], s.Counts[:])
	if nanos := c.gibbsWallNanos.Load(); nanos > 0 {
		s.GibbsSamplesPerSec = float64(c.gibbsParSamples.Load()) / (float64(nanos) / float64(time.Second))
	}
	return s
}

// MarshalJSON implements json.Marshaler.
func (s ServeSnapshot) MarshalJSON() ([]byte, error) {
	rate, err := json.Marshal(s.GibbsSamplesPerSec)
	if err != nil {
		return nil, err
	}
	b := appendCounts([]byte{'{'}, serveTable[:], s.Counts[:])
	b = append(b, `,"`+gibbsRateKey+`":`...)
	return append(append(b, rate...), '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler; keys it does not know
// are ignored.
func (s *ServeSnapshot) UnmarshalJSON(b []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for i, d := range serveTable {
		if raw, ok := m[d.Key]; ok {
			if err := json.Unmarshal(raw, &s.Counts[i]); err != nil {
				return fmt.Errorf("metrics: counter %s: %w", d.Key, err)
			}
		}
	}
	if raw, ok := m[gibbsRateKey]; ok {
		return json.Unmarshal(raw, &s.GibbsSamplesPerSec)
	}
	return nil
}

// loadCounts reads each counter atomically into dst.
func loadCounts(src []counter, dst []int64) {
	for i := range src {
		dst[i] = src[i].Load()
	}
}

// appendCounts appends "key":value pairs, one per table row, without
// the enclosing braces.
func appendCounts(b []byte, table []CounterDesc, counts []int64) []byte {
	for i, d := range table {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, d.Key)
		b = append(b, ':')
		b = strconv.AppendInt(b, counts[i], 10)
	}
	return b
}
