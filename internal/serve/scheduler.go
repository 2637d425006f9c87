package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dimmwitted/internal/ckpt"
	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/nn"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/trace"
	"dimmwitted/internal/tune"
)

// ErrJobActive reports a resume attempt on a job that is still queued
// or running; match it with errors.Is.
var ErrJobActive = errors.New("serve: job is still active")

// JobState is the lifecycle state of a training job.
type JobState int

const (
	// JobQueued means the job waits for a scheduler slot.
	JobQueued JobState = iota
	// JobRunning means a worker is executing epochs.
	JobRunning
	// JobDone means training finished and the model is registered.
	JobDone
	// JobFailed means the job ended with an error.
	JobFailed
	// JobCancelled means the job was cancelled before completion.
	JobCancelled
)

// maxHistoryPoints bounds a job's stored convergence curve; beyond it
// the sampling stride doubles (see job.histEvery).
const maxHistoryPoints = 1024

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// TrainRequest describes one training job. Zero-valued knobs take
// scheduler defaults.
type TrainRequest struct {
	// Workload selects the workload family: "glm" (default; a model
	// spec over a data matrix), "gibbs" (sampling over a registered
	// factor graph) or "nn" (network training over a registered image
	// dataset).
	Workload string `json:"workload,omitempty"`
	// Model is the GLM spec's short name ("svm", "lr", ...). Required
	// for glm jobs; must be empty for gibbs/nn jobs, whose task is the
	// workload itself.
	Model string `json:"model,omitempty"`
	// Dataset is a registered name in the workload's registry: a data
	// matrix ("reuters", ...) for glm, a factor graph ("paleo",
	// "cycle5", ...) for gibbs, an image corpus ("mnist", ...) for nn.
	// Required.
	Dataset string `json:"dataset"`
	// Machine overrides the scheduler's topology ("local2", ...).
	Machine string `json:"machine,omitempty"`
	// Access forces an access method ("row", "col", "ctr") instead of
	// the cost-based optimizer's choice; glm only (gibbs is inherently
	// column-to-row, nn row-wise). Forced plans bypass the plan cache;
	// the engine rejects unsupported spec/access pairs.
	Access string `json:"access,omitempty"`
	// Executor selects the execution backend: "simulated" (default;
	// deterministic interleaver on the NUMA cost simulator) or
	// "parallel" (real goroutine workers — Hogwild delta-flushing for
	// glm/nn, concurrent Hogwild!-Gibbs sweeps for gibbs — wall-clock
	// epochs, cancellable mid-epoch).
	Executor string `json:"executor,omitempty"`
	// TargetLoss stops training early once reached; 0 runs MaxEpochs.
	// Ignored for gibbs jobs, whose quality metric (marginal entropy)
	// is not a convergence target — sampling runs its sweep budget.
	TargetLoss float64 `json:"target_loss,omitempty"`
	// MaxEpochs bounds the run (epochs for glm/nn, sweeps per chain
	// for gibbs); 0 means 50.
	MaxEpochs int `json:"max_epochs,omitempty"`
	// Workers overrides the plan's worker count; 0 means all cores.
	Workers int `json:"workers,omitempty"`
	// Step overrides the initial step size; 0 means the model default.
	Step float64 `json:"step,omitempty"`
	// Seed drives traversal randomness; 0 means the engine default.
	Seed int64 `json:"seed,omitempty"`
	// ModelRep forces a model replication strategy ("percore",
	// "pernode", "permachine") instead of the optimizer's choice.
	// Requires Access (a forced plan is all-or-nothing). "percluster"
	// is rejected here: one server cannot span machines — submit to a
	// cluster coordinator (cmd/dwcoord) instead.
	ModelRep string `json:"model_rep,omitempty"`
	// DataRep forces a data replication strategy ("sharding",
	// "fullreplication", "importance"). Requires Access.
	DataRep string `json:"data_rep,omitempty"`
	// StepDecay overrides the per-epoch step decay factor; 0 means the
	// model default. Requires Access.
	StepDecay float64 `json:"step_decay,omitempty"`
	// FixedOrder replaces the per-epoch random traversal permutation
	// with the identity order, making the trajectory independent of
	// Seed. Cluster peers train with it so a sharded run is bitwise
	// comparable to a single-node run on the union. Requires Access.
	FixedOrder bool `json:"fixed_order,omitempty"`
	// Trace enables the engine's span recorder for this job: phase
	// breakdowns appear in the job status, the full span journal at
	// GET /v1/jobs/{id}/trace, and the job's phase timers feed the
	// process-wide engine counters on /metrics. Not a plan knob — a
	// warm-started job may be traced even though its plan is pinned.
	Trace bool `json:"trace,omitempty"`
	// WarmStart resumes training from a stored snapshot: a registry
	// model ID or a checkpointed job ID. The job runs the snapshot's
	// plan (re-validated against the restored state), so the plan knobs
	// — machine, access, executor, workers, step, seed — must be left
	// empty; workload, model and dataset may be given but must match
	// the snapshot. MaxEpochs is the total epoch target: a warm-started
	// job trains until the engine's epoch counter (which resumes from
	// the snapshot) reaches it, so snapshot epoch k + max_epochs N runs
	// N−k more epochs and reproduces an uninterrupted N-epoch run.
	WarmStart string `json:"warm_start,omitempty"`
	// Online keeps the job training as its dataset grows: between
	// epochs the engine adopts any newer published view of the (stream)
	// dataset, and every PublishEvery epochs a candidate model is
	// shadow-evaluated on the view's held-out tail and canary-promoted
	// — swapped live through the registry's atomic pointer — only if it
	// does not regress the live version. GLM only, row-wise access,
	// specs without per-row auxiliary state (svm, lr).
	Online bool `json:"online,omitempty"`
	// PublishEvery is the online publication cadence in epochs; 0
	// means 5. Ignored unless Online.
	PublishEvery int `json:"publish_every,omitempty"`
	// ShadowTail is the held-out tail fraction shadow evaluation scores
	// candidates on; 0 means 0.2. Ignored unless Online.
	ShadowTail float64 `json:"shadow_tail,omitempty"`
}

// OnlineStatus reports an online job's streaming state.
type OnlineStatus struct {
	// Rows and DatasetVersion identify the dataset view the engine is
	// currently training on (the ingest high-water mark).
	Rows           int    `json:"rows"`
	DatasetVersion uint64 `json:"dataset_version"`
	// VersionsPublished counts candidate models built and shadow-
	// evaluated; VersionsPromoted the ones that passed the gate and
	// went live; VersionsRolledBack the regressing canaries rejected.
	VersionsPublished  int64 `json:"versions_published"`
	VersionsPromoted   int64 `json:"versions_promoted"`
	VersionsRolledBack int64 `json:"versions_rolled_back"`
	// LastCandidateLoss and LastLiveLoss are the most recent shadow
	// evaluation's held-out tail losses (live is zero until a version
	// has been promoted).
	LastCandidateLoss float64 `json:"last_candidate_loss,omitempty"`
	LastLiveLoss      float64 `json:"last_live_loss,omitempty"`
	// LastPublishMs is the latest promotion's publish-to-live latency:
	// candidate snapshot through shadow eval to the atomic swap.
	LastPublishMs float64 `json:"last_publish_ms,omitempty"`
}

// ProgressPoint is one epoch of a job's convergence curve.
type ProgressPoint struct {
	// Epoch is the 1-based epoch number.
	Epoch int `json:"epoch"`
	// Loss is the combined-model objective after the epoch.
	Loss float64 `json:"loss"`
	// SimSeconds is cumulative simulated time in seconds (zero for
	// parallel-executor jobs).
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is cumulative measured wall-clock training time in
	// seconds — the parallel executor's time axis.
	WallSeconds float64 `json:"wall_seconds"`
}

// JobStatus is a point-in-time copy of a job's externally visible
// state.
type JobStatus struct {
	// ID is the job identifier ("job-1", ...).
	ID string `json:"id"`
	// State is the lifecycle state ("queued", "running", ...).
	State string `json:"state"`
	// Request echoes the submitted request.
	Request TrainRequest `json:"request"`
	// Plan renders the executed plan once the job starts.
	Plan string `json:"plan,omitempty"`
	// Epoch and Loss are the latest progress from the engine.
	Epoch int     `json:"epoch"`
	Loss  float64 `json:"loss"`
	// Converged reports whether TargetLoss was reached.
	Converged bool `json:"converged"`
	// Workload is the job's workload family ("glm", "gibbs", "nn").
	Workload string `json:"workload"`
	// Metrics carries workload-appropriate quality metrics from the
	// latest epoch: nn reports "accuracy", gibbs reports marginal
	// summaries ("mean_marginal", "polarization"); empty for glm, whose
	// loss is the whole story.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Marginals carries the pooled per-variable P(x=1) estimate of a
	// finished gibbs job. Only the per-job detail view includes it —
	// the jobs listing omits the (per-variable-sized) vector and keeps
	// the Metrics summaries.
	Marginals []float64 `json:"marginals,omitempty"`
	// Error carries the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// SimSeconds is the cumulative simulated training time (zero for
	// parallel-executor jobs).
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is the cumulative measured wall-clock training time.
	WallSeconds float64 `json:"wall_seconds"`
	// History is the per-epoch convergence curve.
	History []ProgressPoint `json:"history,omitempty"`
	// Trace is the engine phase breakdown of a traced job (request had
	// "trace": true); nil otherwise. The full span journal is served by
	// GET /v1/jobs/{id}/trace.
	Trace *trace.Summary `json:"trace,omitempty"`
	// Online is the streaming state of an online job: the adopted
	// dataset view and the shadow/canary promotion counters. Nil for
	// static jobs.
	Online *OnlineStatus `json:"online,omitempty"`
	// PlanSource reports how the executed plan was chosen: "static"
	// (word-cost prior), "measured" (feedback overrode the prior),
	// "explore" (epsilon draw ran the decision's runner-up), "cached"
	// (plan cache hit), "forced" (request's access override) or "warm"
	// (snapshot's pinned plan).
	PlanSource string `json:"plan_source,omitempty"`
	// PredictedSecondsPerEpoch is the feedback store's cost forecast for
	// the executed plan at planning time; 0 when the plan's observation
	// key had no history. Compare with ObservedSecondsPerEpoch to audit
	// the self-tuning optimizer's accuracy.
	PredictedSecondsPerEpoch float64 `json:"predicted_seconds_per_epoch,omitempty"`
	// ObservedSecondsPerEpoch is the job's measured wall clock per epoch
	// it ran itself (warm-start inherited epochs excluded); 0 until the
	// first epoch finishes.
	ObservedSecondsPerEpoch float64 `json:"observed_seconds_per_epoch,omitempty"`
	// Enqueued, Started and Finished are wall-clock timestamps;
	// Started/Finished are zero until reached.
	Enqueued time.Time `json:"enqueued"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// job is the scheduler's internal record. All mutable fields are
// guarded by the owning scheduler's mutex.
type job struct {
	id   string
	req  TrainRequest
	kind core.WorkloadKind
	// wl is the job's workload; a Workload binds to one engine, so it
	// is built per job at submission.
	wl core.Workload
	// spec and ds are set for glm jobs only (plan-cache keys, registry
	// publication).
	spec model.Spec
	ds   *data.Dataset
	top  numa.Topology
	// warm is the snapshot a warm-started or resumed job restores
	// before its first epoch; nil for cold starts.
	warm *core.Snapshot
	// rec is the job's span recorder (nil unless the request asked for
	// tracing). Set once before the first epoch runs; the recorder's own
	// methods are concurrency-safe, so status snapshots read it live.
	rec *trace.Recorder
	// resumedFrom is the checkpointed job id a Resume revived; its
	// checkpoints are superseded (and deleted) when this job completes.
	// Empty for cold starts and registry warm starts.
	resumedFrom string
	ctx         context.Context
	cancel      context.CancelFunc
	done        chan struct{}
	state       JobState
	plan        core.Plan
	planned     bool
	// planSource records how the executed plan was chosen ("static",
	// "measured", "explore", "cached", "forced", "warm") and predicted
	// the feedback store's cost forecast for it at planning time (0
	// when the plan's key had no observations). tuneKey is the
	// observation key epochs record under; it is written before the
	// first epoch and read only by the running worker.
	planSource string
	predicted  float64
	tuneKey    tune.Key
	hasTuneKey bool
	// epochsRun counts epochs this job executed itself and ownWall their
	// wall clock (a warm start's inherited epochs and time are excluded
	// from both) — the observed seconds-per-epoch the status reports.
	epochsRun int
	ownWall   time.Duration
	epoch     int
	loss      float64
	conv      bool
	err       string
	qmetrics  map[string]float64
	margins   []float64
	simTime   time.Duration
	wallTime  time.Duration
	curve     metrics.Curve
	enqueued  time.Time
	started   time.Time
	finished  time.Time
	// handle and curView are set for online glm jobs: handle is the
	// growable dataset, curView the published view the engine currently
	// trains on (replaced on adopt). online accumulates the streaming
	// progress the status reports.
	handle  *data.Handle
	curView *data.Dataset
	online  onlineProgress
}

// onlineProgress is an online job's streaming state, guarded by the
// scheduler's mutex like the other progress fields.
type onlineProgress struct {
	rows        int
	version     uint64
	published   int64
	promoted    int64
	rolledBack  int64
	candLoss    float64
	liveLoss    float64
	lastPublish time.Duration
}

// status reports the progress as an online job's status. A diverged
// candidate's NaN or ±Inf loss is left out (encoding/json cannot
// encode it); versions_rolled_back already counts its rejection.
func (p onlineProgress) status() *OnlineStatus {
	st := &OnlineStatus{
		Rows:               p.rows,
		DatasetVersion:     p.version,
		VersionsPublished:  p.published,
		VersionsPromoted:   p.promoted,
		VersionsRolledBack: p.rolledBack,
		LastLiveLoss:       p.liveLoss,
		LastPublishMs:      float64(p.lastPublish) / float64(time.Millisecond),
	}
	if !math.IsNaN(p.candLoss) && !math.IsInf(p.candLoss, 0) {
		st.LastCandidateLoss = p.candLoss
	}
	return st
}

// Options configures a scheduler (and, through it, a server).
type Options struct {
	// Machine is the default simulated topology; zero means local2.
	Machine numa.Topology
	// Slots is the worker-pool size — how many training jobs run
	// concurrently. 0 derives it from the topology: one slot per
	// simulated NUMA socket, the same locality-group granularity the
	// engine uses for PerNode replication.
	Slots int
	// QueueDepth bounds the number of waiting jobs; 0 means 256.
	QueueDepth int
	// MaxJobHistory bounds how many *terminal* job records are
	// retained; the oldest are evicted first (their registered models
	// stay). 0 means 1000; negative disables eviction.
	MaxJobHistory int
	// Counters receives serving metrics; nil allocates a private set.
	Counters *metrics.ServeCounters
	// Checkpoints is the durable job-checkpoint store backing crash
	// resume (Resume, POST /v1/jobs/{id}/resume); nil disables job
	// checkpointing.
	Checkpoints *ckpt.Store
	// Models persists the registry across restarts; nil keeps trained
	// models in memory only.
	Models *ckpt.Store
	// CheckpointEvery snapshots every running job's engine state after
	// each N completed epochs (requires Checkpoints); 0 disables.
	CheckpointEvery int
	// Feedback is the self-tuning optimizer's observation store: every
	// finished epoch records its wall clock against the executed plan's
	// axes, and once a key crosses the store's observation threshold
	// the measured cost overrides the static prior in plan choice. Nil
	// builds a private in-memory store (the loop is on by default);
	// pass a store to share it or to attach durable persistence.
	Feedback *tune.Store
	// DisableFeedback turns the feedback loop off entirely: plans come
	// from the static cost model alone, epochs record nothing, and the
	// plan cache never invalidates on a winner flip.
	DisableFeedback bool
	// MaxBodyBytes caps the request body every POST handler will read;
	// an oversized body answers 413 instead of exhausting memory. 0
	// means 64 MiB; negative disables the cap. Server-level.
	MaxBodyBytes int64
}

// OpenStores opens the serve layer's three durability namespaces under
// dir — "jobs" for mid-training checkpoints, "models" for the
// persistent registry, "tune" for the self-tuning optimizer's learned
// costs — creating the directories as needed.
func OpenStores(dir string) (jobs, models, tuner *ckpt.Store, err error) {
	if jobs, err = ckpt.Open(filepath.Join(dir, "jobs"), ckpt.Options{}); err != nil {
		return nil, nil, nil, err
	}
	if models, err = ckpt.Open(filepath.Join(dir, "models"), ckpt.Options{}); err != nil {
		return nil, nil, nil, err
	}
	if tuner, err = ckpt.Open(filepath.Join(dir, "tune"), ckpt.Options{}); err != nil {
		return nil, nil, nil, err
	}
	return jobs, models, tuner, nil
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.Machine.Nodes == 0 {
		o.Machine = numa.Local2
	}
	if o.Slots == 0 {
		o.Slots = o.Machine.Nodes
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.MaxJobHistory == 0 {
		o.MaxJobHistory = 1000
	}
	if o.Counters == nil {
		o.Counters = &metrics.ServeCounters{}
	}
	if o.Feedback == nil && !o.DisableFeedback {
		o.Feedback = tune.NewStore(tune.Options{})
	}
	if o.DisableFeedback {
		o.Feedback = nil
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 64 << 20
	}
	return o
}

// Scheduler runs training jobs asynchronously on a fixed worker pool
// and feeds completed models into a Registry. All methods are safe for
// concurrent use.
type Scheduler struct {
	opts     Options
	counters *metrics.ServeCounters
	plans    *PlanCache
	models   *Registry
	catalog  *Catalog
	// feedback is the self-tuning optimizer's observation store; nil
	// when Options.DisableFeedback turned the loop off.
	feedback *tune.Store

	queue chan *job
	wg    sync.WaitGroup

	// phases aggregates every traced job's span totals per executor
	// kind — the process-wide engine phase timers behind /metrics.
	// Indexed by core.ExecutorKind; the zero values are ready.
	phases [2]trace.PhaseTotals

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool
}

// NewScheduler builds a scheduler and starts its worker pool.
func NewScheduler(opts Options) *Scheduler {
	opts = opts.normalize()
	s := &Scheduler{
		opts:     opts,
		counters: opts.Counters,
		plans:    NewPlanCache(),
		models:   NewRegistry(),
		catalog:  NewCatalog(),
		feedback: opts.Feedback,
		queue:    make(chan *job, opts.QueueDepth),
		jobs:     map[string]*job{},
	}
	if opts.Models != nil {
		s.models.Persist(opts.Models, opts.Counters)
	}
	// Job IDs double as durable store keys, so a restarted daemon must
	// not reissue ids a previous process left in the stores — a reused
	// id would overwrite the dead process's models and delete its
	// checkpoints on completion.
	s.nextID = maxStoredJobID(opts.Checkpoints, opts.Models)
	for i := 0; i < opts.Slots; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
	return s
}

// maxStoredJobID scans the durable stores for "job-<n>" ids and
// returns the highest n, so a fresh scheduler's counter starts past
// every id a previous process used. Non-numeric ids are ignored; scan
// errors degrade to 0 (an empty or brand-new store).
func maxStoredJobID(stores ...*ckpt.Store) int {
	max := 0
	for _, st := range stores {
		if st == nil {
			continue
		}
		ids, err := st.IDs()
		if err != nil {
			continue
		}
		for _, id := range ids {
			var n int
			if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > max {
				max = n
			}
		}
	}
	return max
}

// Models returns the registry completed jobs publish into.
func (s *Scheduler) Models() *Registry { return s.models }

// Catalog returns the dataset catalog every job and append resolves
// names through.
func (s *Scheduler) Catalog() *Catalog { return s.catalog }

// Plans returns the shared plan cache.
func (s *Scheduler) Plans() *PlanCache { return s.plans }

// Feedback returns the self-tuning optimizer's observation store, or
// nil when the feedback loop is disabled.
func (s *Scheduler) Feedback() *tune.Store { return s.feedback }

// Counters returns the scheduler's serving counters.
func (s *Scheduler) Counters() *metrics.ServeCounters { return s.counters }

// Slots returns the worker-pool size.
func (s *Scheduler) Slots() int { return s.opts.Slots }

// PhaseTotals returns the process-wide engine phase timers for one
// executor kind, aggregated across every traced job.
func (s *Scheduler) PhaseTotals(kind core.ExecutorKind) *trace.PhaseTotals {
	if int(kind) < 0 || int(kind) >= len(s.phases) {
		return nil
	}
	return &s.phases[kind]
}

// TraceRecorder returns a job's span recorder. ok reports whether the
// job exists; the recorder is nil for untraced jobs.
func (s *Scheduler) TraceRecorder(id string) (rec *trace.Recorder, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, false
	}
	return j.rec, true
}

// buildWorkload resolves the request's workload, task and dataset into
// a fresh core.Workload (one per job: a workload binds to one engine).
// The spec and dataset returns are non-nil for glm jobs only.
func (s *Scheduler) buildWorkload(kind core.WorkloadKind, req TrainRequest) (core.Workload, model.Spec, *data.Dataset, error) {
	switch kind {
	case core.WorkloadGLM:
		spec, err := model.ByName(req.Model)
		if err != nil {
			return nil, nil, nil, err
		}
		ds, err := s.catalog.Dataset(req.Dataset)
		if err != nil {
			return nil, nil, nil, err
		}
		return core.NewGLM(spec, ds), spec, ds, nil
	case core.WorkloadGibbs:
		if req.Model != "" {
			return nil, nil, nil, fmt.Errorf("serve: gibbs jobs take no model name (the workload is the task), got %q", req.Model)
		}
		g, err := s.catalog.Graph(req.Dataset)
		if err != nil {
			return nil, nil, nil, err
		}
		return factor.NewWorkload(g), nil, nil, nil
	case core.WorkloadNN:
		if req.Model != "" {
			return nil, nil, nil, fmt.Errorf("serve: nn jobs take no model name (the workload is the task), got %q", req.Model)
		}
		ds, sizes, err := s.catalog.NNDataset(req.Dataset)
		if err != nil {
			return nil, nil, nil, err
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		wl, err := nn.NewWorkload(ds, nn.WorkloadConfig{Sizes: sizes, Seed: seed})
		return wl, nil, nil, err
	default:
		return nil, nil, nil, fmt.Errorf("serve: unhandled workload %v", kind)
	}
}

// resolveWarmStart locates the snapshot behind a warm_start reference:
// a registry model (served or store-resident) or a checkpointed job. A
// checkpoint that exists but cannot be read (every generation corrupt)
// is reported as such and counted, not masked as a miss.
func (s *Scheduler) resolveWarmStart(id string) (core.Snapshot, error) {
	_, snap, err := s.models.Fetch(id)
	if err == nil {
		return snap, nil
	}
	if !errors.Is(err, ErrUnknownModel) {
		// The model exists but its store entry is unreadable; say so
		// (lookup already counted the checkpoint error).
		return core.Snapshot{}, fmt.Errorf("serve: warm_start %q: %w", id, err)
	}
	if s.opts.Checkpoints != nil {
		snap, _, _, err := s.opts.Checkpoints.Load(id)
		if err == nil {
			return snap, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			s.counters.Inc(metrics.CheckpointErrors)
			return core.Snapshot{}, fmt.Errorf("serve: warm_start %q: %w", id, err)
		}
	}
	return core.Snapshot{}, fmt.Errorf("serve: warm_start %q matches no registered model or job checkpoint", id)
}

// warmRequest reconciles a warm-start request with its snapshot: plan
// knobs must be unset (the job re-runs the snapshot's plan, which is
// what makes resumed epochs reproduce the source run), and the task
// identity — workload, model, dataset — may be given only if it
// matches what the snapshot was trained as.
func warmRequest(req TrainRequest, snap core.Snapshot) (TrainRequest, error) {
	type knob struct {
		name string
		set  bool
	}
	for _, k := range []knob{
		{"machine", req.Machine != ""},
		{"access", req.Access != ""},
		{"executor", req.Executor != ""},
		{"workers", req.Workers != 0},
		{"step", req.Step != 0},
		{"seed", req.Seed != 0},
		{"model_rep", req.ModelRep != ""},
		{"data_rep", req.DataRep != ""},
		{"step_decay", req.StepDecay != 0},
		{"fixed_order", req.FixedOrder},
	} {
		if k.set {
			return req, fmt.Errorf("serve: warm_start resumes the snapshot's plan; %s cannot be overridden", k.name)
		}
	}
	if req.Workload != "" && req.Workload != snap.Workload.String() {
		return req, fmt.Errorf("serve: warm_start %q is a %s snapshot, request says workload %q",
			req.WarmStart, snap.Workload, req.Workload)
	}
	wantModel := ""
	if snap.Workload == core.WorkloadGLM {
		wantModel = snap.Spec
	}
	if req.Model != "" && req.Model != wantModel {
		return req, fmt.Errorf("serve: warm_start %q was trained as %q, request says model %q",
			req.WarmStart, snap.Spec, req.Model)
	}
	if req.Dataset != "" && req.Dataset != snap.Dataset {
		return req, fmt.Errorf("serve: warm_start %q was trained on %q, request says dataset %q",
			req.WarmStart, snap.Dataset, req.Dataset)
	}
	req.Workload = snap.Workload.String()
	req.Model = wantModel
	req.Dataset = snap.Dataset
	return req, nil
}

// Submit validates a request, enqueues a job and returns its ID. The
// request fails fast on unknown workloads, models, datasets, machines
// or access methods, on warm_start conflicts, and on a full queue;
// execution errors surface as a Failed job instead.
func (s *Scheduler) Submit(req TrainRequest) (string, error) {
	var warm *core.Snapshot
	if req.WarmStart != "" {
		snap, err := s.resolveWarmStart(req.WarmStart)
		if err != nil {
			return "", err
		}
		warm = &snap
	}
	return s.submit(req, warm, "")
}

// submit is the shared enqueue path; warm (when non-nil) is the
// already-loaded snapshot behind req.WarmStart, so Resume hands over
// the exact generation whose metadata set the budget. resumedFrom is
// the checkpointed job id being revived (Resume only).
func (s *Scheduler) submit(req TrainRequest, warm *core.Snapshot, resumedFrom string) (string, error) {
	if warm != nil {
		var err error
		if req, err = warmRequest(req, *warm); err != nil {
			return "", err
		}
	}
	kind, err := core.WorkloadByName(req.Workload)
	if err != nil {
		return "", err
	}
	wl, spec, ds, err := s.buildWorkload(kind, req)
	if err != nil {
		return "", err
	}
	top := s.opts.Machine
	if req.Machine != "" {
		if top, err = numa.ByName(req.Machine); err != nil {
			return "", err
		}
	}
	if req.Access != "" {
		if kind != core.WorkloadGLM {
			return "", fmt.Errorf("serve: access is fixed per workload (%s); only glm jobs accept an override", kind)
		}
		if _, err := parseAccess(req.Access); err != nil {
			return "", err
		}
	}
	if req.ModelRep == "percluster" {
		return "", fmt.Errorf("serve: percluster replication spans machines; one server cannot run it — submit the job to a cluster coordinator (cmd/dwcoord)")
	}
	if req.ModelRep != "" || req.DataRep != "" || req.StepDecay != 0 || req.FixedOrder {
		// A forced plan is all-or-nothing: replication and ordering
		// knobs bypass the optimizer only alongside a forced access
		// method, never half-merged into a cost-based choice.
		if req.Access == "" {
			return "", fmt.Errorf("serve: model_rep/data_rep/step_decay/fixed_order force the plan and require access to be set too")
		}
		if req.ModelRep != "" {
			if _, err := parseModelRep(req.ModelRep); err != nil {
				return "", err
			}
		}
		if req.DataRep != "" {
			if _, err := parseDataRep(req.DataRep); err != nil {
				return "", err
			}
		}
		if req.StepDecay < 0 {
			return "", fmt.Errorf("serve: negative step_decay %g", req.StepDecay)
		}
	}
	if _, err := core.ExecutorByName(req.Executor); err != nil {
		return "", err
	}
	if req.MaxEpochs < 0 {
		return "", fmt.Errorf("serve: negative max_epochs %d", req.MaxEpochs)
	}
	if req.MaxEpochs == 0 {
		req.MaxEpochs = 50
	}

	var handle *data.Handle
	if req.Online {
		if kind != core.WorkloadGLM {
			return "", fmt.Errorf("serve: online mode is glm-only (got workload %s)", kind)
		}
		if req.PublishEvery < 0 {
			return "", fmt.Errorf("serve: negative publish_every %d", req.PublishEvery)
		}
		if req.ShadowTail < 0 || req.ShadowTail > 0.9 {
			return "", fmt.Errorf("serve: shadow_tail %g outside [0, 0.9]", req.ShadowTail)
		}
		if req.Access != "" && req.Access != "row" {
			return "", fmt.Errorf("serve: online jobs train row-wise; access %q cannot be forced", req.Access)
		}
		if !supportsAccess(spec, model.RowWise) {
			return "", fmt.Errorf("serve: online jobs train row-wise; spec %q does not support it", spec.Name())
		}
		if proto := spec.NewReplica(ds); proto.Aux != nil {
			// Per-row auxiliary state (LS, LP) is sized to the row count at
			// engine build; growing the dataset under it would index past
			// the allocation.
			return "", fmt.Errorf("serve: online mode does not support spec %q (per-row auxiliary state)", spec.Name())
		}
		if handle, err = s.catalog.Handle(req.Dataset); err != nil {
			return "", err
		}
		if warm != nil && warm.DataRows > 0 {
			// Resume trains on the exact view the checkpoint recorded (the
			// ingest high-water mark), so no already-trained row replays;
			// newer appends are adopted between epochs like any online job.
			view, err := handle.ViewAt(warm.DataRows)
			if err != nil {
				return "", fmt.Errorf("serve: online warm start: %w", err)
			}
			ds = view
			wl = core.NewGLM(spec, view)
		}
		if ds.Rows() == 0 {
			return "", fmt.Errorf("serve: online job on %q: no rows ingested yet (append first)", req.Dataset)
		}
	}
	if warm != nil && warm.Epoch >= req.MaxEpochs {
		// max_epochs is the total target; a budget the snapshot has
		// already reached would "train" zero epochs and republish the
		// snapshot as a done job — a silent no-op the caller did not ask
		// for.
		return "", fmt.Errorf("serve: warm_start %q is already at epoch %d; max_epochs %d must exceed it",
			req.WarmStart, warm.Epoch, req.MaxEpochs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		req:         req,
		kind:        kind,
		wl:          wl,
		spec:        spec,
		ds:          ds,
		top:         top,
		warm:        warm,
		resumedFrom: resumedFrom,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       JobQueued,
		enqueued:    time.Now(),
	}
	if handle != nil {
		j.handle = handle
		j.curView = ds
		j.online.rows = ds.Rows()
		j.online.version = ds.Version
	}

	// The enqueue happens under the same lock as the closed check so a
	// concurrent Close (which closes the channel) cannot race the send.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return "", fmt.Errorf("serve: scheduler is closed")
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		return "", fmt.Errorf("serve: job queue full (depth %d)", s.opts.QueueDepth)
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()

	s.counters.Inc(metrics.JobsEnqueued)
	return j.id, nil
}

// evictLocked drops the oldest terminal job records once more than
// MaxJobHistory of them exist, so a long-running daemon's job table
// stays bounded. Live (queued/running) jobs are never evicted; the
// models they registered outlive the job record. Callers hold s.mu.
func (s *Scheduler) evictLocked() {
	limit := s.opts.MaxJobHistory
	if limit < 0 {
		return
	}
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].state.Terminal() {
			terminal++
		}
	}
	if terminal <= limit {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if terminal > limit && s.jobs[id].state.Terminal() {
			delete(s.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// supportsAccess reports whether the spec lists the access method.
func supportsAccess(spec model.Spec, want model.Access) bool {
	for _, a := range spec.Supports() {
		if a == want {
			return true
		}
	}
	return false
}

// parseAccess maps the request's short access names.
func parseAccess(name string) (model.Access, error) {
	switch name {
	case "row":
		return model.RowWise, nil
	case "col":
		return model.ColWise, nil
	case "ctr":
		return model.ColToRow, nil
	default:
		return 0, fmt.Errorf("serve: unknown access %q (want row, col, or ctr)", name)
	}
}

// parseModelRep maps the request's model replication names. The
// "percluster" level is deliberately absent: Submit rejects it with a
// pointer to the coordinator before ever reaching here.
func parseModelRep(name string) (core.ModelReplication, error) {
	switch name {
	case "percore":
		return core.PerCore, nil
	case "pernode":
		return core.PerNode, nil
	case "permachine":
		return core.PerMachine, nil
	default:
		return 0, fmt.Errorf("serve: unknown model_rep %q (want percore, pernode, or permachine)", name)
	}
}

// parseDataRep maps the request's data replication names.
func parseDataRep(name string) (core.DataReplication, error) {
	switch name {
	case "sharding":
		return core.Sharding, nil
	case "fullreplication":
		return core.FullReplication, nil
	case "importance":
		return core.Importance, nil
	default:
		return 0, fmt.Errorf("serve: unknown data_rep %q (want sharding, fullreplication, or importance)", name)
	}
}

// Plan-source labels for JobStatus.PlanSource.
const (
	planSourceStatic   = "static"   // the word-cost prior decided
	planSourceMeasured = "measured" // feedback overrode the prior
	planSourceExplore  = "explore"  // epsilon draw ran the runner-up
	planSourceCached   = "cached"   // plan cache hit
	planSourceForced   = "forced"   // request's access override
	planSourceWarm     = "warm"     // snapshot's pinned plan
)

// planFor resolves the job's execution plan, consulting the plan cache
// when the optimizer would decide (no access override). The requested
// executor and the workload kind are both part of the cache key: the
// executor narrows the access methods the optimizer may price, and
// heterogeneous workloads keep separate registries whose dataset names
// may collide. With the feedback loop on, a cache miss runs the
// cost-model-aware optimizer — the static estimate is the prior, a key
// with enough observed epochs wins on measurement — and an epsilon
// draw occasionally runs the decision's runner-up (the cache still
// stores the winner, so exploration never poisons later lookups).
func (s *Scheduler) planFor(j *job) (core.Plan, error) {
	exec, _ := core.ExecutorByName(j.req.Executor) // validated at Submit
	if j.req.Access != "" {                        // glm only, validated at Submit
		access, _ := parseAccess(j.req.Access)
		s.setPlanSource(j, planSourceForced, 0)
		plan := core.Plan{Access: access, Machine: j.top, DataRep: core.FullReplication, Executor: exec, FixedOrder: j.req.FixedOrder}
		if j.req.ModelRep != "" {
			plan.ModelRep, _ = parseModelRep(j.req.ModelRep) // validated at Submit
		}
		if j.req.DataRep != "" {
			plan.DataRep, _ = parseDataRep(j.req.DataRep) // validated at Submit
		}
		if j.req.StepDecay > 0 {
			plan.StepDecay = j.req.StepDecay
		}
		return plan, nil
	}
	key := s.keyFor(j, exec)
	if plan, ok := s.plans.Lookup(key); ok {
		s.counters.Inc(metrics.PlanCacheHits)
		s.setPlanSource(j, planSourceCached, s.predictFor(j, plan))
		return plan, nil
	}
	s.counters.Inc(metrics.PlanCacheMisses)
	// A nil cost model reduces the decision to the static optimizer's
	// choice, so feedback off takes the same call.
	var cm core.CostModel
	if s.feedback != nil {
		cm = jobCostModel{s: s, j: j}
	}
	dec, err := core.ChoosePlanModel(j.wl, j.top, exec, cm)
	if err != nil {
		return s.planFallback(j, exec, err)
	}
	s.plans.Store(key, dec.Plan)
	plan, source, predicted := dec.Plan, dec.Source, dec.PredictedSeconds
	if dec.RunnerUp != nil && s.feedback != nil && s.feedback.Explore() {
		plan = *dec.RunnerUp
		source = planSourceExplore
		predicted = s.predictFor(j, plan)
	}
	s.setPlanSource(j, source, predicted)
	return plan, nil
}

// planFallback handles an optimizer error: the parallel backend fails
// loudly (no row-wise method means it genuinely cannot run the spec);
// the simulator leaves the choice to the engine's own validation, so
// an unusable plan fails the job with the engine's error.
func (s *Scheduler) planFallback(j *job, exec core.ExecutorKind, err error) (core.Plan, error) {
	if exec == core.ExecParallel {
		return core.Plan{}, err
	}
	s.setPlanSource(j, planSourceStatic, 0)
	return core.Plan{Machine: j.top, Executor: exec}, nil
}

// setPlanSource records how the job's plan was chosen and the cost
// forecast for it, for the status report.
func (s *Scheduler) setPlanSource(j *job, source string, predicted float64) {
	s.mu.Lock()
	j.planSource = source
	j.predicted = predicted
	s.mu.Unlock()
}

// predictFor returns the feedback store's EWMA seconds-per-epoch for
// the plan, or 0 when the key has never been observed. Unlike the
// decision path this reads below the K threshold: a forecast from two
// epochs is still the best available number to print next to the
// observed cost.
func (s *Scheduler) predictFor(j *job, p core.Plan) float64 {
	if s.feedback == nil {
		return 0
	}
	if obs, ok := s.feedback.Lookup(s.obsKeyFor(j, p)); ok {
		return obs.SecondsPerEpoch
	}
	return 0
}

// jobCostModel adapts the scheduler's feedback store to the optimizer's
// CostModel seam for one job: candidate plans map to observation keys
// through the job's workload identity.
type jobCostModel struct {
	s *Scheduler
	j *job
}

// MeasuredSeconds implements core.CostModel.
func (m jobCostModel) MeasuredSeconds(p core.Plan) (float64, bool) {
	return m.s.feedback.Measured(m.s.obsKeyFor(m.j, p))
}

// obsKeyFor builds the observation key for a plan executed by this
// job: workload identity, dataset fingerprint, and the plan axes the
// optimizer chooses between. The plan's own machine name is used (a
// warm start may pin a topology the request never named).
func (s *Scheduler) obsKeyFor(j *job, p core.Plan) tune.Key {
	k := tune.Key{
		Workload:   j.kind.String(),
		Machine:    p.Machine.Name,
		Executor:   p.Executor.String(),
		ModelRep:   p.ModelRep.String(),
		DataRep:    p.DataRep.String(),
		Access:     p.Access.String(),
		Workers:    p.Workers,
		StealChunk: p.StealChunk,
	}
	if j.kind == core.WorkloadGLM {
		k.Model = j.spec.Name()
		k.Dataset = j.ds.Name
		k.Rows, k.Cols, k.NNZ = j.ds.Rows(), j.ds.Cols(), j.ds.NNZ()
		k.DatasetVersion = j.ds.Version
	} else {
		k.Model = j.wl.Name()
		k.Dataset = j.wl.DatasetName()
		k.Rows, k.Cols, k.NNZ = j.wl.Units(), j.wl.Dim(), j.wl.DataNNZ()
	}
	return k
}

// replan re-runs the feedback-aware optimizer after a job's epochs
// landed in the store and invalidates the cached plan if the winner
// flipped — the cache's generational contract. The corrected winner is
// stored immediately, so the next submission hits the cache on the
// current decision rather than re-planning.
func (s *Scheduler) replan(j *job, exec core.ExecutorKind) {
	key := s.keyFor(j, exec)
	cached, ok := s.plans.Peek(key)
	if !ok {
		return
	}
	dec, err := core.ChoosePlanModel(j.wl, j.top, exec, jobCostModel{s: s, j: j})
	if err != nil {
		return
	}
	if samePlanAxes(cached, dec.Plan) {
		return
	}
	s.plans.Invalidate(key)
	s.plans.Store(key, dec.Plan)
}

// samePlanAxes compares the plan axes the feedback store keys on; the
// tuning knobs outside them (step sizes, sync cadence) do not
// constitute a winner flip.
func samePlanAxes(a, b core.Plan) bool {
	return a.Access == b.Access && a.ModelRep == b.ModelRep && a.DataRep == b.DataRep &&
		a.Executor == b.Executor && a.Workers == b.Workers && a.StealChunk == b.StealChunk
}

// keyFor builds the job's plan-cache key: the GLM key carries the
// dataset's task semantics, the workload key its kind and shape.
func (s *Scheduler) keyFor(j *job, exec core.ExecutorKind) PlanKey {
	if j.kind == core.WorkloadGLM {
		return KeyFor(j.spec, j.ds, j.top, exec)
	}
	return KeyForWorkload(j.wl, j.top, exec)
}

// run executes one job on the calling worker goroutine.
func (s *Scheduler) run(j *job) {
	s.mu.Lock()
	if j.state != JobQueued {
		s.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	s.mu.Unlock()

	var plan core.Plan
	if j.warm != nil {
		// A warm-started job re-runs the snapshot's plan; NewWorkload
		// re-normalizes and re-validates it against the rebuilt
		// workload, so a stale snapshot (wrong dimension, withdrawn
		// dataset shape) fails the job loudly below.
		plan = j.warm.Plan
		s.setPlanSource(j, planSourceWarm, s.predictFor(j, plan))
	} else {
		var err error
		plan, err = s.planFor(j)
		if err != nil {
			s.finish(j, JobFailed, err.Error())
			return
		}
		if j.req.Workers > 0 {
			plan.Workers = j.req.Workers
		}
		if j.req.Step > 0 {
			plan.Step = j.req.Step
		}
		if j.req.Seed != 0 {
			plan.Seed = j.req.Seed
		}
		if j.req.Online {
			// Growth is only safe row-wise (work units are rows, re-
			// partitioned every epoch) and without precomputed leverage
			// scores; submit validated the spec supports this.
			plan.Access = model.RowWise
			if plan.DataRep == core.Importance {
				plan.DataRep = core.FullReplication
			}
		}
	}

	eng, err := core.NewWorkload(j.wl, plan)
	if err != nil {
		s.finish(j, JobFailed, err.Error())
		return
	}
	// The scheduler owns the engine's pool lifecycle: however the job
	// ends — done, failed, or cancelled mid-epoch — the parallel
	// executor's persistent workers drain before run returns, so a
	// DELETE /v1/jobs/{id} never leaks parked goroutines.
	defer eng.Close()
	if j.warm != nil {
		if err := eng.Restore(*j.warm); err != nil {
			s.counters.Inc(metrics.CheckpointErrors)
			s.finish(j, JobFailed, err.Error())
			return
		}
		s.counters.Inc(metrics.CheckpointRestores)
	}

	if j.req.Trace {
		// The sink is chosen by the executed plan (warm starts pin it),
		// so the phase timers land under the executor that actually ran.
		rec := trace.New(trace.Config{Sink: s.PhaseTotals(eng.ExecutorKind())})
		eng.SetRecorder(rec)
		s.mu.Lock()
		j.rec = rec
		s.mu.Unlock()
	}

	s.mu.Lock()
	j.plan = eng.Plan()
	j.planned = true
	if j.warm != nil {
		j.epoch = j.warm.Epoch
		j.loss = j.warm.Loss
		j.simTime = j.warm.SimTime
		j.wallTime = j.warm.WallTime
	}
	s.mu.Unlock()

	if s.feedback != nil {
		// Epochs observe the engine's fully normalized plan (worker and
		// step overrides included), not the cached one, so the feedback
		// store prices what actually ran. Flush once at job end — the
		// store is in-memory authoritative; a failed write-through only
		// loses learning across a restart.
		j.tuneKey = s.obsKeyFor(j, eng.Plan())
		j.hasTuneKey = true
		defer func() {
			if err := s.feedback.Flush(); err != nil {
				s.counters.Inc(metrics.CheckpointErrors)
			}
		}()
	}
	// prevStep/prevFlush/prevBarrier hold the traced job's cumulative
	// phase seconds after the previous epoch; diffing successive
	// summaries yields the per-epoch step/flush/barrier split.
	var prevStep, prevFlush, prevBarrier float64

	// histEvery is the progress sampling stride; it doubles whenever
	// the curve reaches maxHistoryPoints so very long jobs keep a
	// bounded, evenly thinned history. Workload quality metrics (NN
	// accuracy costs a dataset pass) are refreshed on the same stride,
	// plus once at the end.
	histEvery := 1
	publishEvery := j.req.PublishEvery
	if publishEvery <= 0 {
		publishEvery = 5
	}
	for eng.Epoch() < j.req.MaxEpochs {
		select {
		case <-j.ctx.Done():
			s.cancelRun(j, eng)
			return
		default:
		}
		// Online jobs adopt newly appended data between epochs: the next
		// epoch's work assignment re-partitions over the grown view, so
		// no running epoch ever observes a torn matrix.
		if j.handle != nil {
			if v := j.handle.View(); v.Version > j.online.version {
				if err := eng.Grow(v); err != nil {
					s.finish(j, JobFailed, err.Error())
					return
				}
				s.counters.Inc(metrics.OnlineAdopts)
				s.mu.Lock()
				j.curView = v
				j.online.rows = v.Rows()
				j.online.version = v.Version
				s.mu.Unlock()
			}
		}
		// The engine observes j.ctx inside the epoch too, so DELETE on
		// a parallel job aborts between worker flushes rather than
		// waiting out the epoch.
		er, err := eng.RunEpochCtx(j.ctx)
		if err != nil {
			// Cancelled mid-epoch: the engine rolled back to the last
			// completed epoch boundary, which is still resumable state.
			s.cancelRun(j, eng)
			return
		}
		sample := er.Epoch%histEvery == 0
		var qm map[string]float64
		if sample {
			qm = eng.Metrics()
		}
		s.recordEpoch(j, eng, er)
		if s.feedback != nil && j.hasTuneKey {
			smp := tune.Sample{SecondsPerEpoch: er.WallTime.Seconds()}
			if j.rec != nil {
				sum := j.rec.Summary()
				flush := 0.0
				for _, p := range sum.Phases {
					if p.Phase == "flush" {
						flush = p.Seconds
					}
				}
				smp.StepSeconds = sum.StepSeconds - prevStep
				smp.FlushSeconds = flush - prevFlush
				smp.BarrierSeconds = sum.BarrierSeconds - prevBarrier
				smp.HasSplit = true
				prevStep, prevFlush, prevBarrier = sum.StepSeconds, flush, sum.BarrierSeconds
			}
			s.feedback.Record(j.tuneKey, smp)
		}

		s.mu.Lock()
		j.epochsRun++
		j.ownWall += er.WallTime
		j.epoch = er.Epoch
		j.loss = er.Loss
		if qm != nil {
			j.qmetrics = qm
		}
		j.simTime = er.CumTime
		j.wallTime += er.WallTime
		if sample {
			_ = j.curve.Append(metrics.Point{Epoch: er.Epoch, Time: er.CumTime, Wall: j.wallTime, Loss: er.Loss})
			if len(j.curve.Points) >= maxHistoryPoints {
				histEvery *= 2
				kept := j.curve.Points[:0]
				for _, p := range j.curve.Points {
					if p.Epoch%histEvery == 0 {
						kept = append(kept, p)
					}
				}
				j.curve.Points = kept
			}
		}
		s.mu.Unlock()

		// Online publication cadence: every publishEvery epochs a
		// candidate snapshot runs the shadow/canary gate.
		if j.handle != nil && er.Epoch%publishEvery == 0 {
			_ = s.publishOnline(j, eng.Snapshot())
		}

		// The checkpoint policy: persist the engine's full resume state
		// (model, traversal generators, chain state) every N epochs, so
		// a crashed or cancelled job restarts from its last checkpoint
		// instead of epoch zero.
		if s.opts.Checkpoints != nil && s.opts.CheckpointEvery > 0 && er.Epoch%s.opts.CheckpointEvery == 0 {
			s.checkpoint(j, eng)
		}

		// Gibbs marginal entropy is a mixing statistic, not a
		// convergence target: sampling always runs its sweep budget.
		if j.kind != core.WorkloadGibbs && j.req.TargetLoss > 0 && er.Loss <= j.req.TargetLoss {
			s.mu.Lock()
			j.conv = true
			s.mu.Unlock()
			break
		}
	}

	// One final cancellation check so a cancel that raced the last
	// epoch wins over publication.
	select {
	case <-j.ctx.Done():
		s.cancelRun(j, eng)
		return
	default:
	}

	// The loop may have ended off-stride; publish final quality.
	final := eng.Metrics()
	s.mu.Lock()
	j.qmetrics = final
	s.mu.Unlock()

	if s.feedback != nil {
		// The job's epochs are in the store; re-run the decision and
		// invalidate the cached plan if the measured winner flipped.
		s.replan(j, eng.ExecutorKind())
	}

	var persistErr error
	if j.handle != nil {
		// The final model runs the same shadow/canary gate as the
		// periodic publications: a run that regressed since its last
		// promotion leaves that promoted version live.
		persistErr = s.publishOnline(j, eng.Snapshot())
	} else {
		persistErr = s.publish(j, eng.Snapshot())
	}
	// A completed job's resume state is superseded by its registry
	// model (which warm_start can continue from); drop the checkpoints —
	// the revived source job's too, or every crash/resume cycle would
	// leak stale-but-resumable generations forever. Unless the model's
	// own durable write-through just failed, in which case the last
	// checkpoint is the only on-disk copy of the state and must survive
	// for resume. The deletes come before finish, so a waiter that sees
	// the job done never finds its checkpoints still on disk.
	if s.opts.Checkpoints != nil && persistErr == nil {
		_ = s.opts.Checkpoints.Delete(j.id)
		if j.resumedFrom != "" {
			_ = s.opts.Checkpoints.Delete(j.resumedFrom)
		}
	}
	s.finish(j, JobDone, "")
}

// cancelRun ends a cancelled job. A cancel is a job DELETE or a server
// shutdown; either way the engine holds epochs the last periodic
// checkpoint may not, and a final save is what lets Resume continue
// instead of restarting from zero.
func (s *Scheduler) cancelRun(j *job, eng *core.Engine) {
	if s.opts.Checkpoints != nil && eng.Epoch() > 0 {
		s.checkpoint(j, eng)
	}
	s.finish(j, JobCancelled, "")
}

// ckptMeta is a checkpoint's metadata envelope: the submitted request
// plus, for online jobs, the ingest high-water mark at checkpoint time.
// It embeds TrainRequest so metas written by older builds (a bare
// request JSON) decode unchanged, and older builds ignore the extra
// keys.
type ckptMeta struct {
	TrainRequest
	// IngestRows and IngestVersion record the dataset view the
	// checkpointed engine had adopted. The snapshot itself carries the
	// authoritative pair (Snapshot.DataRows/DataVersion); the envelope
	// duplicates it in human-readable form for store inspection.
	IngestRows    int    `json:"ingest_rows,omitempty"`
	IngestVersion uint64 `json:"ingest_version,omitempty"`
}

// checkpoint durably saves one running job's engine state together
// with the submitted request (and, for online jobs, the ingest
// high-water mark), so Resume can rebuild the workload, the exact
// dataset view, and the remaining epoch budget.
func (s *Scheduler) checkpoint(j *job, eng *core.Engine) {
	env := ckptMeta{TrainRequest: j.req}
	if j.handle != nil {
		s.mu.Lock()
		env.IngestRows = j.online.rows
		env.IngestVersion = j.online.version
		s.mu.Unlock()
	}
	meta, err := json.Marshal(env)
	if err != nil {
		s.counters.Inc(metrics.CheckpointErrors)
		return
	}
	if _, n, err := s.opts.Checkpoints.Save(j.id, eng.Snapshot(), meta); err != nil {
		s.counters.Inc(metrics.CheckpointErrors)
	} else {
		s.counters.CheckpointWrite(n)
	}
}

// Resume revives a cancelled, failed or crashed job from its newest
// durable checkpoint as a new warm-started job, and returns the new
// job's ID. The id may belong to a terminal job of this scheduler or
// to a job of a previous process using the same store — the crash
// case, where this scheduler has never heard of it. The resumed job
// keeps the original request's epoch budget and loss target but runs
// the checkpoint's plan.
func (s *Scheduler) Resume(id string) (string, error) {
	if s.opts.Checkpoints == nil {
		return "", fmt.Errorf("serve: no checkpoint store configured (start dwserve with -store)")
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
		state := j.state
		s.mu.Unlock()
		return "", fmt.Errorf("%w: job %s is %s", ErrJobActive, id, state)
	}
	s.mu.Unlock()

	snap, meta, _, err := s.opts.Checkpoints.Load(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "", fmt.Errorf("serve: job %q has no durable checkpoint: %w", id, os.ErrNotExist)
		}
		s.counters.Inc(metrics.CheckpointErrors)
		return "", err
	}
	var orig ckptMeta
	if len(meta) > 0 {
		// A missing or unreadable request (older store layouts) falls
		// back to Submit's defaults; the snapshot still pins the task.
		_ = json.Unmarshal(meta, &orig)
	}
	req := TrainRequest{
		TargetLoss:   orig.TargetLoss,
		MaxEpochs:    orig.MaxEpochs,
		WarmStart:    id,
		Online:       orig.Online,
		PublishEvery: orig.PublishEvery,
		ShadowTail:   orig.ShadowTail,
	}
	// Hand the loaded snapshot straight to the submit path: re-resolving
	// by id would read and decode the checkpoint a second time and could
	// race a generation written in between, pairing this load's budget
	// with a different generation's state.
	return s.submit(req, &snap, id)
}

// recordEpoch feeds one epoch's measurements into the serving
// counters, per workload kind.
func (s *Scheduler) recordEpoch(j *job, eng *core.Engine, er core.EpochResult) {
	switch j.kind {
	case core.WorkloadGibbs:
		// One epoch is one sweep per chain; steps are variable samples.
		// Only parallel-executor epochs contribute wall time: a
		// simulated epoch's wall clock measures the cost simulator, not
		// sampling throughput, and would poison the samples/sec rate.
		var wall time.Duration
		if eng.ExecutorKind() == core.ExecParallel {
			wall = er.WallTime
		}
		s.counters.GibbsEpoch(eng.Replicas(), int64(er.Steps), wall)
	case core.WorkloadNN:
		s.counters.NNEpoch(int64(er.Steps))
	}
}

// publish registers the finished job's snapshot with a workload-
// appropriate scorer and surfaces terminal state (gibbs marginals).
// The returned error reports a failed durable write-through; the
// in-memory registration always happens.
func (s *Scheduler) publish(j *job, snap core.Snapshot) error {
	var err error
	switch j.kind {
	case core.WorkloadGLM:
		err = s.models.Put(j.id, j.spec, snap)
	case core.WorkloadNN:
		wl := j.wl.(*nn.Workload)
		err = s.models.PutScored(j.id, wl.PredictBatch, snap)
	case core.WorkloadGibbs:
		err = s.models.PutScored(j.id, marginalScorer, snap)
		s.mu.Lock()
		j.margins = snap.X
		s.mu.Unlock()
	}
	return err
}

// promoteSlack is the canary gate's tolerance: a candidate may be
// promoted when its held-out tail loss does not exceed the live
// model's by more than this fraction (successive SGD snapshots jitter;
// a hard "must improve" gate would starve promotions near the optimum
// without protecting anything).
const promoteSlack = 0.01

// promoteDecision is the shadow-evaluation gate: the first candidate
// always promotes (nothing is live yet), afterwards a candidate must
// not regress the live model's held-out loss beyond promoteSlack.
// Non-finite candidate losses (a diverged model) never promote.
func promoteDecision(cand, live float64, hasLive bool) bool {
	if math.IsNaN(cand) || math.IsInf(cand, 0) {
		return false
	}
	if !hasLive {
		return true
	}
	return cand <= live*(1+promoteSlack)+1e-12
}

// publishOnline runs one candidate model through the shadow/canary
// gate: the candidate and the currently live version are both scored
// on the held-out tail of the job's adopted view, and only a candidate
// that passes promoteDecision is swapped live (the registry's atomic
// pointer swap — in-flight predictions finish on the old version). A
// regressing canary is rolled back: counters record it and the
// previously promoted version stays live. The returned error reports a
// failed durable write-through of a promoted model; rollbacks are not
// errors.
func (s *Scheduler) publishOnline(j *job, snap core.Snapshot) error {
	start := time.Now()
	s.mu.Lock()
	view := j.curView
	s.mu.Unlock()
	frac := j.req.ShadowTail
	if frac <= 0 {
		frac = 0.2
	}
	tail := data.TailView(view, frac)
	candLoss := j.spec.Loss(tail, snap.X)
	for _, x := range snap.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// A diverged weight can hide in a column the held-out tail
			// never touches and still score a finite tail loss; the gate
			// must not serve it either way.
			candLoss = math.NaN()
			break
		}
	}
	var liveLoss float64
	_, liveSnap, hasLive := s.models.Get(j.id)
	if hasLive {
		liveLoss = j.spec.Loss(tail, liveSnap.X)
	}
	s.counters.Inc(metrics.ShadowEvals)
	promote := promoteDecision(candLoss, liveLoss, hasLive)
	var err error
	if promote {
		err = s.publish(j, snap)
		s.counters.Inc(metrics.ModelsPromoted)
	} else {
		s.counters.Inc(metrics.ModelsRolledBack)
	}
	s.mu.Lock()
	j.online.published++
	j.online.candLoss = candLoss
	if hasLive {
		j.online.liveLoss = liveLoss
	}
	if promote {
		j.online.promoted++
		j.online.lastPublish = time.Since(start)
	} else {
		j.online.rolledBack++
	}
	s.mu.Unlock()
	return err
}

// marginalScorer serves Gibbs snapshots: each example selects one
// variable index and the prediction is its pooled marginal P(x=1).
func marginalScorer(x []float64, examples []model.Example) ([]float64, error) {
	out := make([]float64, len(examples))
	for i, ex := range examples {
		if len(ex.Idx) != 1 {
			return nil, fmt.Errorf("serve: gibbs example %d must select exactly one variable index, got %d", i, len(ex.Idx))
		}
		v := int(ex.Idx[0])
		if v < 0 || v >= len(x) {
			return nil, fmt.Errorf("serve: gibbs example %d selects variable %d of %d", i, v, len(x))
		}
		out[i] = x[v]
	}
	return out, nil
}

// finish moves a job to a terminal state exactly once.
func (s *Scheduler) finish(j *job, state JobState, errMsg string) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	s.mu.Unlock()
	j.cancel()
	close(j.done)
	switch state {
	case JobDone:
		s.counters.Inc(metrics.JobsDone)
	case JobFailed:
		s.counters.Inc(metrics.JobsFailed)
	case JobCancelled:
		s.counters.Inc(metrics.JobsCancelled)
	}
}

// Cancel cancels a queued or running job. Cancelling a terminal job is
// a no-op; unknown IDs are an error.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: unknown job %q", id)
	}
	if j.state.Terminal() {
		s.mu.Unlock()
		return nil
	}
	queued := j.state == JobQueued
	s.mu.Unlock()

	if queued {
		// A queued job never reaches a worker's cancellation checks if
		// the pool is saturated; finish it directly. run() skips jobs
		// that are no longer Queued.
		s.finish(j, JobCancelled, "")
		return nil
	}
	j.cancel()
	return nil
}

// Status returns a copy of the job's current state.
func (s *Scheduler) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j, true), true
}

// Jobs returns every job's status in submission order. Listings omit
// the per-variable marginal vectors; fetch a job's Status for those.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id], false))
	}
	return out
}

// statusLocked snapshots one job; callers hold s.mu.
func (s *Scheduler) statusLocked(j *job, withMarginals bool) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state.String(),
		Request:     j.req,
		Workload:    j.kind.String(),
		Epoch:       j.epoch,
		Loss:        j.loss,
		Converged:   j.conv,
		Error:       j.err,
		SimSeconds:  j.simTime.Seconds(),
		WallSeconds: j.wallTime.Seconds(),
		Enqueued:    j.enqueued,
		Started:     j.started,
		Finished:    j.finished,
	}
	if len(j.qmetrics) > 0 {
		st.Metrics = make(map[string]float64, len(j.qmetrics))
		for k, v := range j.qmetrics {
			st.Metrics[k] = v
		}
	}
	if withMarginals && j.margins != nil {
		st.Marginals = append([]float64(nil), j.margins...)
	}
	if j.planned {
		st.Plan = j.plan.String()
	}
	st.PlanSource = j.planSource
	st.PredictedSecondsPerEpoch = j.predicted
	if j.epochsRun > 0 {
		st.ObservedSecondsPerEpoch = j.ownWall.Seconds() / float64(j.epochsRun)
	}
	if j.rec != nil {
		sum := j.rec.Summary()
		st.Trace = &sum
	}
	if j.handle != nil {
		st.Online = j.online.status()
	}
	for _, p := range j.curve.Points {
		st.History = append(st.History, ProgressPoint{
			Epoch: p.Epoch, Loss: p.Loss, SimSeconds: p.Time.Seconds(), WallSeconds: p.Wall.Seconds(),
		})
	}
	return st
}

// QueueStats summarises the scheduler's job population by state.
type QueueStats struct {
	Slots     int `json:"slots"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Stats returns current queue statistics.
func (s *Scheduler) Stats() QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := QueueStats{Slots: s.opts.Slots}
	for _, j := range s.jobs {
		switch j.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (s *Scheduler) Done(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Wait blocks until the job terminates or the timeout elapses and
// returns its final (or latest) status.
func (s *Scheduler) Wait(id string, timeout time.Duration) (JobStatus, error) {
	done, ok := s.Done(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %q", id)
	}
	select {
	case <-done:
	case <-time.After(timeout):
		st, _ := s.Status(id)
		return st, fmt.Errorf("serve: job %s still %s after %v", id, st.State, timeout)
	}
	st, _ := s.Status(id)
	return st, nil
}

// Close stops the scheduler: new submissions are rejected, queued and
// running jobs are cancelled (running jobs write a final checkpoint on
// their way out, so a restart can Resume them), and the worker pool
// drains. Close blocks until every worker exits, then flushes the tune
// feedback store so observations from this process survive the
// restart.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	pending := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; !j.state.Terminal() {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()

	for _, j := range pending {
		j.cancel()
		s.mu.Lock()
		queued := j.state == JobQueued
		s.mu.Unlock()
		if queued {
			s.finish(j, JobCancelled, "")
		}
	}
	close(s.queue)
	s.wg.Wait()
	if s.feedback != nil {
		if err := s.feedback.Flush(); err != nil {
			s.counters.Inc(metrics.CheckpointErrors)
		}
	}
}
