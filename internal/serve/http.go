package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/nn"
	"dimmwitted/internal/trace"
	"dimmwitted/internal/tune"
)

// Server is the HTTP front end: a scheduler, its model registry and
// plan cache, exposed as a JSON API (see the package comment for the
// route table). Every route records its handler latency into a
// per-route histogram surfaced by /v1/stats.
type Server struct {
	sched    *Scheduler
	counters *metrics.ServeCounters
	mux      *http.ServeMux
	// latency maps route patterns to their handler-latency histograms.
	// The map is built at construction and read-only afterwards, so
	// concurrent lookups need no lock.
	latency map[string]*metrics.Histogram
	// stages splits POST /v1/predict into its read, decode, score and
	// encode stages (see handlePredict).
	stages [numPredictStages]metrics.Histogram
	// maxBody caps every request body (Options.MaxBodyBytes, already
	// normalized); <= 0 disables the cap.
	maxBody int64
	// cluster records which coordinator (if any) this server answers
	// to; see the peer-mode routes in cluster.go.
	cluster clusterMembership
	started time.Time
}

// NewServer builds a server with its own scheduler.
func NewServer(opts Options) *Server {
	opts = opts.normalize()
	s := &Server{
		sched:    NewScheduler(opts),
		counters: opts.Counters,
		mux:      http.NewServeMux(),
		latency:  map[string]*metrics.Histogram{},
		maxBody:  opts.MaxBodyBytes,
		started:  time.Now(),
	}
	s.handle("POST /v1/train", s.handleTrain)
	s.handle("GET /v1/jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("POST /v1/jobs/{id}/resume", s.handleResume)
	s.handle("GET /v1/models", s.handleModels)
	s.handle("POST /v1/datasets/{id}/append", s.handleAppend)
	s.handle("POST /v1/predict", s.handlePredict)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("POST /v1/cluster/join", s.handleClusterJoin)
	s.handle("GET /v1/cluster/replica/{id}", s.handleReplicaGet)
	s.handle("POST /v1/cluster/replica/{id}", s.handleReplicaPut)
	s.handle("GET /v1/datasets/{id}/rows", s.handleRows)
	return s
}

// handle registers a route with its latency histogram: every request
// through the pattern is timed, successes and errors alike, so the
// histogram count equals the requests issued against the route. The
// body is capped at Options.MaxBodyBytes on every route, so no POST
// handler can be fed an unbounded payload; an overrun surfaces from
// the handler's body read as *http.MaxBytesError (see writeBodyError).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	hist := &metrics.Histogram{}
	s.latency[pattern] = hist
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.maxBody > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		h(w, r)
		hist.Observe(time.Since(start))
	})
}

// Scheduler returns the underlying scheduler.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Close shuts the scheduler down (see Scheduler.Close).
func (s *Server) Close() { s.sched.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v as a JSON response and reports whether v itself
// went out. v is encoded into a pooled buffer before the status line is
// sent, so a value encoding/json refuses (a NaN or ±Inf float) answers
// 500 with the counted error envelope instead of code over an empty
// body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) bool {
	buf := getBuf()
	defer putBuf(buf)
	err := json.NewEncoder(buf).Encode(v)
	if err != nil {
		s.counters.Inc(metrics.HTTPErrors)
		code = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	return err == nil
}

// writeError writes a JSON error envelope and counts it.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.counters.Inc(metrics.HTTPErrors)
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeJSON decodes a request body into v, mapping a body-cap overrun
// to 413 and any other decode failure to 400 (with what as the error
// prefix). Returns false once the error response has been written.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.writeBodyError(w, err, what)
		return false
	}
	return true
}

// writeBodyError answers a failed body read or decode: 413 naming the
// limit when the body cap tripped, 400 otherwise.
func (s *Server) writeBodyError(w http.ResponseWriter, err error, what string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%s body exceeds the %d-byte limit (raise -max-body-bytes)", what, tooBig.Limit))
		return
	}
	s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s request: %w", what, err))
}

// trainResponse acknowledges a submitted job.
type trainResponse struct {
	JobID string `json:"job_id"`
	// Status is the URL to poll for progress.
	Status string `json:"status"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if !s.decodeJSON(w, r, &req, "train") {
		return
	}
	id, err := s.sched.Submit(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.counters.Inc(metrics.TrainRequests)
	s.writeJSON(w, http.StatusAccepted, trainResponse{
		JobID:  id,
		Status: "/v1/jobs/" + id,
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.sched.Status(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// traceResponse is the span journal view of a traced job.
type traceResponse struct {
	ID string `json:"id"`
	// Summary is the aggregate phase breakdown (exact even when the
	// ring has dropped old spans).
	Summary trace.Summary `json:"summary"`
	// Workers is the per-worker utilization over the retained journal;
	// empty for simulated-executor jobs (one goroutine, no worker
	// spans).
	Workers []trace.WorkerUtil `json:"workers,omitempty"`
	// Epochs is the retained span tree, grouped by epoch.
	Epochs []trace.EpochSpans `json:"epochs"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.sched.TraceRecorder(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if rec == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("job %q was not traced; submit with \"trace\": true", id))
		return
	}
	spans := rec.Spans()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"-trace.json"))
		_ = trace.WriteChromeTrace(w, spans)
		return
	}
	s.writeJSON(w, http.StatusOK, traceResponse{
		ID:      id,
		Summary: rec.Summary(),
		Workers: trace.Utilization(spans),
		Epochs:  trace.Tree(spans),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	st, _ := s.sched.Status(id)
	s.writeJSON(w, http.StatusOK, st)
}

// resumeResponse acknowledges a resumed job.
type resumeResponse struct {
	JobID string `json:"job_id"`
	// Status is the URL to poll for progress.
	Status string `json:"status"`
	// ResumedFrom is the checkpointed job the new job continues.
	ResumedFrom string `json:"resumed_from"`
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	newID, err := s.sched.Resume(id)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, os.ErrNotExist):
			code = http.StatusNotFound
		case errors.Is(err, ErrJobActive):
			code = http.StatusConflict
		}
		s.writeError(w, code, err)
		return
	}
	s.counters.Inc(metrics.TrainRequests)
	s.writeJSON(w, http.StatusAccepted, resumeResponse{
		JobID:       newID,
		Status:      "/v1/jobs/" + newID,
		ResumedFrom: id,
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"models": s.sched.Models().List()})
}

// exampleJSON is one prediction input: either a sparse
// (indices, values) pair or a dense feature vector.
type exampleJSON struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Dense   []float64 `json:"dense,omitempty"`
}

// predictRequest asks for batched predictions from a trained model.
type predictRequest struct {
	// Model is the registry ID (the training job's ID).
	Model    string        `json:"model"`
	Examples []exampleJSON `json:"examples"`
}

// predictResponse carries one prediction per example, in order.
type predictResponse struct {
	Model       string    `json:"model"`
	Predictions []float64 `json:"predictions"`
	Count       int       `json:"count"`
}

// Predict stages, in request order: reading the body off the socket,
// decoding it (through building the model examples), scoring in the
// registry, and encoding and writing the reply. Each is timed into its
// own histogram on every request that reaches it.
const (
	stageRead = iota
	stageDecode
	stageScore
	stageEncode
	numPredictStages
)

var predictStageNames = [numPredictStages]string{"read", "decode", "score", "encode"}

// stageClock times consecutive predict stages with one clock read per
// stage boundary.
type stageClock struct {
	stages *[numPredictStages]metrics.Histogram
	last   time.Time
}

// lap observes the time since the previous lap into stage.
func (c *stageClock) lap(stage int) {
	now := time.Now()
	c.stages[stage].Observe(now.Sub(c.last))
	c.last = now
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	clock := stageClock{&s.stages, time.Now()}
	examples, id, ok := s.predictExamples(w, r, &clock)
	clock.lap(stageDecode)
	if !ok {
		return
	}
	preds, err := s.sched.Models().Predict(id, examples)
	clock.lap(stageScore)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownModel) {
			code = http.StatusNotFound
		}
		s.writeError(w, code, err)
		return
	}
	if s.writeJSON(w, http.StatusOK, predictResponse{Model: id, Predictions: preds, Count: len(preds)}) {
		s.counters.PredictRequest(len(preds))
	}
	clock.lap(stageEncode)
}

// predictExamples decodes a predict body into the model id and its
// examples, lapping clock once the body is read; false means the
// error response has been written.
func (s *Server) predictExamples(w http.ResponseWriter, r *http.Request, clock *stageClock) ([]model.Example, string, bool) {
	req, ok := decodeBody(s, w, r, "predict", decodePredict, clock)
	if !ok {
		return nil, "", false
	}
	if len(req.Examples) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("predict request has no examples"))
		return nil, "", false
	}
	examples := make([]model.Example, 0, len(req.Examples))
	for i, ex := range req.Examples {
		switch {
		case ex.Dense != nil && ex.Indices == nil && ex.Values == nil:
			examples = append(examples, model.DenseExample(ex.Dense))
		case ex.Dense == nil:
			examples = append(examples, model.Example{Idx: ex.Indices, Vals: ex.Values})
		default:
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("example %d mixes dense and sparse encodings", i))
			return nil, "", false
		}
	}
	return examples, req.Model, true
}

// appendRowJSON is one ingested example: a sparse (indices, values)
// pair or a dense feature vector, plus the row's label.
type appendRowJSON struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Dense   []float64 `json:"dense,omitempty"`
	Label   float64   `json:"label"`
}

// appendRequest ingests a chunk of rows into a stream dataset. Cols
// (and optionally Task) create the stream on the first append to an
// unknown id; later chunks may omit them, and a chunk that repeats them
// must match the stream's shape or is refused with 409.
type appendRequest struct {
	Rows []appendRowJSON `json:"rows"`
	Cols int             `json:"cols,omitempty"`
	// Task is "classification" (default) or "regression".
	Task string `json:"task,omitempty"`
}

// appendResponse reports the view published by an append.
type appendResponse struct {
	Dataset  string `json:"dataset"`
	Version  uint64 `json:"version"`
	Rows     int    `json:"rows"`
	Appended int    `json:"appended"`
}

// parseTask maps an append request's task name to a data.Task.
func parseTask(name string) (data.Task, error) {
	switch name {
	case "", "classification":
		return data.Classification, nil
	case "regression":
		return data.Regression, nil
	}
	return 0, fmt.Errorf("unknown task %q (want classification or regression)", name)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	req, ok := decodeBody(s, w, r, "append", decodeAppend, nil)
	if !ok {
		return
	}
	if len(req.Rows) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("append request has no rows"))
		return
	}
	// A generated name is refused before the lookup, which would build
	// the whole dataset only to refuse it.
	if data.IsBuiltin(id) {
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("dataset %q is a frozen registry dataset; append to a new name to create a stream", id))
		return
	}
	h, err := s.sched.Catalog().Handle(id)
	task, taskErr := parseTask(req.Task)
	switch {
	case err != nil && req.Cols <= 0:
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown dataset %q: the first append must set cols (and optionally task) to create the stream", id))
		return
	case taskErr != nil:
		s.writeError(w, http.StatusBadRequest, taskErr)
		return
	case err != nil:
		if h, err = s.sched.Catalog().Stream(id, req.Cols, task); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.Cols != 0 || req.Task != "":
		// A later chunk that names a shape must match the stream's; an
		// omitted field takes the stream's own value.
		cols := req.Cols
		if cols == 0 {
			cols = h.Cols()
		}
		if req.Task == "" {
			task = h.Task()
		}
		if _, err := s.sched.Catalog().Stream(id, cols, task); err != nil {
			s.writeError(w, http.StatusConflict, err)
			return
		}
	}
	rows := make([]data.Row, 0, len(req.Rows))
	for i, rj := range req.Rows {
		if rj.Dense != nil && (rj.Indices != nil || rj.Values != nil) {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("row %d mixes dense and sparse encodings", i))
			return
		}
		rows = append(rows, data.Row{Indices: rj.Indices, Values: rj.Values, Dense: rj.Dense, Label: rj.Label})
	}
	view, err := h.Append(rows)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.counters.AppendRequest(len(rows))
	s.writeJSON(w, http.StatusOK, appendResponse{
		Dataset:  id,
		Version:  view.Version,
		Rows:     view.Rows(),
		Appended: len(rows),
	})
}

// statsResponse aggregates every subsystem's statistics.
type statsResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Machine       string                `json:"machine"`
	Counters      metrics.ServeSnapshot `json:"counters"`
	Queue         QueueStats            `json:"queue"`
	PlanCache     PlanCacheStats        `json:"plan_cache"`
	Models        int                   `json:"models"`
	// Latency maps each route pattern to its handler-latency histogram
	// summary (p50/p95/p99); counts include error responses, so a
	// route's count equals the requests issued against it.
	Latency map[string]metrics.HistogramSnapshot `json:"latency"`
	// PredictStages splits POST /v1/predict's handler latency into its
	// read, decode, score and encode stages.
	PredictStages map[string]metrics.HistogramSnapshot `json:"predict_stages"`
	// Optimizer summarises the self-tuning optimizer's feedback store
	// (keys, observations, explorations); omitted when the feedback loop
	// is disabled.
	Optimizer *tune.Stats `json:"optimizer,omitempty"`
	// Datasets, Graphs and NNDatasets list what each workload's
	// "dataset" field accepts: GLM data matrices, factor graphs, and
	// image corpora.
	Datasets   []string `json:"datasets"`
	Graphs     []string `json:"graphs"`
	NNDatasets []string `json:"nn_datasets"`
	// CheckpointDir and ModelDir are the durable store directories, or
	// empty when the server runs without durability (-store unset).
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	ModelDir      string `json:"model_dir,omitempty"`
	// CheckpointEvery is the scheduler's epochs-per-checkpoint policy.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Cluster reports coordinator membership when this server has been
	// joined to a cluster (dwserve -peer-of); omitted otherwise.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	lat := make(map[string]metrics.HistogramSnapshot, len(s.latency))
	for pattern, h := range s.latency {
		lat[pattern] = h.Snapshot()
	}
	stages := make(map[string]metrics.HistogramSnapshot, numPredictStages)
	for i, name := range predictStageNames {
		stages[name] = s.stages[i].Snapshot()
	}
	resp := statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Machine:       s.sched.opts.Machine.Name,
		Counters:      s.counters.Snapshot(),
		Queue:         s.sched.Stats(),
		PlanCache:     s.sched.Plans().Stats(),
		Models:        s.sched.Models().Len(),
		Latency:       lat,
		PredictStages: stages,
		Datasets:      s.sched.Catalog().Datasets(),
		Graphs:        factor.BuiltinNames(),
		NNDatasets:    nn.BuiltinNames(),
	}
	if fb := s.sched.Feedback(); fb != nil {
		st := fb.Stats()
		resp.Optimizer = &st
	}
	if st := s.sched.opts.Checkpoints; st != nil {
		resp.CheckpointDir = st.Dir()
		resp.CheckpointEvery = s.sched.opts.CheckpointEvery
	}
	if st := s.sched.opts.Models; st != nil {
		resp.ModelDir = st.Dir()
	}
	resp.Cluster = s.cluster.status()
	s.writeJSON(w, http.StatusOK, resp)
}
