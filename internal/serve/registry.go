package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dimmwitted/internal/ckpt"
	"dimmwitted/internal/core"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/nn"
)

// ErrUnknownModel reports a registry miss; match it with errors.Is.
var ErrUnknownModel = errors.New("serve: unknown model")

// ModelInfo describes one registered model for listings.
type ModelInfo struct {
	// ID is the registry key (the training job's ID).
	ID string `json:"id"`
	// Workload is the workload family ("glm", "gibbs", "nn").
	Workload string `json:"workload"`
	// Spec and Dataset identify what was trained on what.
	Spec    string `json:"spec"`
	Dataset string `json:"dataset"`
	// Dim is the model dimension (expected example coordinate space).
	Dim int `json:"dim"`
	// Epoch and Loss describe the training state at snapshot time.
	Epoch int     `json:"epoch"`
	Loss  float64 `json:"loss"`
	// SimSeconds is the simulated training time in seconds.
	SimSeconds float64 `json:"sim_seconds"`
	// Plan renders the executed plan.
	Plan string `json:"plan"`
	// Created is when the snapshot entered the registry.
	Created time.Time `json:"created"`
}

// Scorer maps a frozen state vector and a batch of examples to one
// prediction per example: a linear-score mapping for GLM snapshots, a
// network forward pass for NN parameters, a marginal lookup for Gibbs
// estimates. Scorers must be safe for concurrent use and read-only
// with respect to x.
type Scorer func(x []float64, examples []model.Example) ([]float64, error)

// servingModel is the read-optimized, fully pre-resolved form of one
// registered model: the spec, the scorer, and the flat weight slice are
// resolved once — at Put or lazy-load time — and the whole value is
// immutable afterwards. Predictions read it through one atomic pointer
// load, so a republish can never be observed torn: a reader sees the
// old (spec, scorer, weights) triple or the new one, never a mix.
type servingModel struct {
	// spec is the GLM model specification; nil for non-GLM snapshots.
	spec model.Spec
	// scorer serves predictions; nil when the snapshot cannot predict.
	scorer Scorer
	// x is the flat weight slice (snap.X), hoisted so the hot path
	// does not chase through the snapshot struct.
	x       []float64
	snap    core.Snapshot
	created time.Time
}

// regEntry is one registry slot: an atomic pointer the publish path
// swaps and the predict path loads lock-free.
type regEntry struct {
	p atomic.Pointer[servingModel]
}

// regFlight is one in-progress lazy store load, shared by every
// request that arrives while the load runs (single-flight).
type regFlight struct {
	done chan struct{}
	sm   *servingModel
	err  error
}

// Registry holds trained model snapshots and serves predictions from
// them. The read path is engineered for throughput: ids live in one
// copy-on-write map, each entry holds an immutable, pre-resolved
// servingModel published by atomic pointer swap, and Predict is
// entirely lock-free — two atomic loads and a map probe, no mutex,
// regardless of how many Puts, Lists or lazy loads run concurrently.
//
// With Persist, the registry is additionally backed by a durable
// checkpoint store: every registered snapshot is written through, and
// a miss falls back to the store — so a restarted daemon serves every
// model its predecessor trained, loading each lazily on first use.
// Lazy loads are single-flight per id: a cold popular model is read
// and decoded once, with every concurrent request waiting on the one
// load instead of issuing its own.
type Registry struct {
	// models is the immutable id -> entry map readers follow without
	// any lock. Writers hold mu and either swap an existing entry's
	// pointer (republish — no map copy) or install a copied map with
	// the new entry (first publish of an id).
	models atomic.Pointer[map[string]*regEntry]

	// mu serialises publication and guards the cold-path state:
	// registration order, the durable-store configuration, the
	// disk-listing cache and the in-flight load table. The predict hot
	// path never takes it.
	mu       sync.Mutex
	order    []string
	store    *ckpt.Store
	counters *metrics.ServeCounters
	// infoCache memoises listing rows of disk-resident models by
	// generation, so repeated List calls decode each model file once —
	// the info row is a dozen scalars, not the model vector.
	infoCache map[string]diskInfo
	flights   map[string]*regFlight
}

// diskInfo is one cached listing row for a store-resident model.
type diskInfo struct {
	gen  uint64
	info ModelInfo
}

// NewRegistry returns an empty, memory-only model registry.
func NewRegistry() *Registry {
	r := &Registry{
		infoCache: map[string]diskInfo{},
		flights:   map[string]*regFlight{},
	}
	r.models.Store(&map[string]*regEntry{})
	return r
}

// peek returns the published serving model for id, or nil. This is the
// whole hot path: one atomic map load, one probe, one entry load.
func (r *Registry) peek(id string) *servingModel {
	e, ok := (*r.models.Load())[id]
	if !ok {
		return nil
	}
	return e.p.Load()
}

// Persist backs the registry with a durable store: subsequent Puts
// write through (best-effort — a failed disk write keeps the in-memory
// entry and counts a checkpoint error), and misses lazily load from
// disk. counters may be nil.
func (r *Registry) Persist(store *ckpt.Store, counters *metrics.ServeCounters) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = store
	r.counters = counters
}

// Put registers a GLM snapshot under the given ID, replacing any
// previous entry with that ID; predictions go through the spec's
// linear-score rule. The returned error reports a failed durable
// write-through only — the in-memory registration always succeeds.
func (r *Registry) Put(id string, spec model.Spec, snap core.Snapshot) error {
	return r.put(id, &servingModel{
		spec: spec,
		scorer: func(x []float64, examples []model.Example) ([]float64, error) {
			return model.PredictBatch(spec, x, examples)
		},
		x:    snap.X,
		snap: snap,
	})
}

// PutScored registers a snapshot with a workload-specific scorer (nil
// for snapshots that cannot serve predictions). Error semantics as Put.
func (r *Registry) PutScored(id string, scorer Scorer, snap core.Snapshot) error {
	return r.put(id, &servingModel{scorer: scorer, x: snap.X, snap: snap})
}

// PutSnapshot registers a decoded wire snapshot, rebuilding the scorer
// from the snapshot's own workload identity — the install path for
// models pushed between cluster peers, where no local job built a
// spec. Error semantics as Put.
func (r *Registry) PutSnapshot(id string, snap core.Snapshot) error {
	spec, scorer := scorerForSnapshot(snap)
	return r.put(id, &servingModel{spec: spec, scorer: scorer, x: snap.X, snap: snap})
}

func (r *Registry) put(id string, sm *servingModel) error {
	r.publish(id, sm)
	r.mu.Lock()
	store, counters := r.store, r.counters
	r.mu.Unlock()
	if store == nil {
		return nil
	}
	if _, n, err := store.Save(id, sm.snap, nil); err != nil {
		if counters != nil {
			counters.Inc(metrics.CheckpointErrors)
		}
		return err
	} else if counters != nil {
		counters.CheckpointWrite(n)
	}
	return nil
}

// publish installs sm under id, replacing any current entry: an
// existing entry's pointer is swapped atomically (readers mid-predict
// keep the version they loaded), a new id lands in a copied map.
func (r *Registry) publish(id string, sm *servingModel) {
	r.install(id, sm, true)
}

// publishIfAbsent installs sm only if the id has no entry yet and
// returns the published model either way. Lazy loads use it so a disk
// read that raced a concurrent Put cannot clobber the fresher model.
func (r *Registry) publishIfAbsent(id string, sm *servingModel) *servingModel {
	return r.install(id, sm, false)
}

// install is the one publication path: swap an existing entry's
// pointer (or keep it, when overwrite is false) or insert the id into
// a copied map, recording its first-registration order for List.
func (r *Registry) install(id string, sm *servingModel, overwrite bool) *servingModel {
	sm.created = time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.models.Load()
	if e, ok := cur[id]; ok {
		if !overwrite {
			return e.p.Load()
		}
		e.p.Store(sm)
		return sm
	}
	next := make(map[string]*regEntry, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	e := &regEntry{}
	e.p.Store(sm)
	next[id] = e
	r.models.Store(&next)
	r.order = append(r.order, id)
	return sm
}

// lookup fetches a serving model, falling back to the durable store on
// a miss. Loads are single-flight per id — however many requests hit a
// cold model concurrently, the store is read and the snapshot decoded
// exactly once, and every waiter shares the result. A plain miss wraps
// ErrUnknownModel; a model whose store entry exists but cannot be read
// reports that failure (and counts it) instead of masquerading as
// unknown.
func (r *Registry) lookup(id string) (*servingModel, error) {
	if sm := r.peek(id); sm != nil {
		return sm, nil
	}
	r.mu.Lock()
	store, counters := r.store, r.counters
	if store == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, id)
	}
	if f, ok := r.flights[id]; ok {
		r.mu.Unlock()
		<-f.done
		return f.sm, f.err
	}
	f := &regFlight{done: make(chan struct{})}
	r.flights[id] = f
	r.mu.Unlock()

	f.sm, f.err = r.loadFromStore(id, store, counters)
	r.mu.Lock()
	delete(r.flights, id)
	r.mu.Unlock()
	close(f.done)
	return f.sm, f.err
}

// loadFromStore performs the one store read behind a flight.
func (r *Registry) loadFromStore(id string, store *ckpt.Store, counters *metrics.ServeCounters) (*servingModel, error) {
	// A Put may have landed between the caller's fast-path miss and the
	// flight registration; prefer it over a disk read.
	if sm := r.peek(id); sm != nil {
		return sm, nil
	}
	snap, _, _, err := store.Load(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w %q", ErrUnknownModel, id)
		}
		if counters != nil {
			counters.Inc(metrics.CheckpointErrors)
		}
		return nil, fmt.Errorf("serve: stored model %q is unreadable: %w", id, err)
	}
	spec, scorer := scorerForSnapshot(snap)
	sm := r.publishIfAbsent(id, &servingModel{spec: spec, scorer: scorer, x: snap.X, snap: snap})
	if counters != nil {
		counters.Inc(metrics.CheckpointRestores)
	}
	return sm, nil
}

// scorerForSnapshot rebuilds the workload-appropriate prediction path
// for a snapshot loaded from disk: the GLM linear-score rule, the NN
// forward pass (architecture read from nn's table by dataset name; no
// dataset is built), or the Gibbs marginal lookup. An unknown spec or
// dataset degrades to a nil scorer — the model lists but cannot
// predict.
func scorerForSnapshot(snap core.Snapshot) (model.Spec, Scorer) {
	switch snap.Workload {
	case core.WorkloadGLM:
		spec, err := model.ByName(snap.Spec)
		if err != nil {
			return nil, nil
		}
		return spec, func(x []float64, examples []model.Example) ([]float64, error) {
			return model.PredictBatch(spec, x, examples)
		}
	case core.WorkloadNN:
		sizes, err := nn.Sizes(snap.Dataset)
		if err != nil {
			return nil, nil
		}
		return nil, func(x []float64, examples []model.Example) ([]float64, error) {
			return nn.PredictBatch(sizes, x, examples)
		}
	case core.WorkloadGibbs:
		return nil, marginalScorer
	default:
		return nil, nil
	}
}

// Get returns the spec and snapshot registered under id, consulting
// the durable store on a miss. The snapshot's model vector is shared —
// callers must treat it as read-only. The spec is nil for non-GLM
// snapshots.
func (r *Registry) Get(id string) (model.Spec, core.Snapshot, bool) {
	sm, err := r.lookup(id)
	if err != nil {
		return nil, core.Snapshot{}, false
	}
	return sm.spec, sm.snap, true
}

// Fetch is Get distinguishing its failure modes: a plain miss wraps
// ErrUnknownModel, while an unreadable store entry surfaces the read
// error — warm-start resolution reports corruption as corruption.
func (r *Registry) Fetch(id string) (model.Spec, core.Snapshot, error) {
	sm, err := r.lookup(id)
	if err != nil {
		return nil, core.Snapshot{}, err
	}
	return sm.spec, sm.snap, nil
}

// Predict scores a batch of examples against the model registered
// under id, lazily loading it from the durable store if this process
// has not served it yet. For a resident model the call is lock-free:
// the serving model — spec, scorer and flat weight slice resolved at
// publish time — is read through one atomic pointer and scored as an
// immutable unit.
func (r *Registry) Predict(id string, examples []model.Example) ([]float64, error) {
	sm, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	if sm.scorer == nil {
		return nil, fmt.Errorf("serve: model %q (%s) does not support prediction", id, sm.snap.Spec)
	}
	return sm.scorer(sm.x, examples)
}

// List returns info for every registered model — including store-
// resident models not yet loaded by this process — in registration
// order (disk-only models follow, in id order). Disk-only entries are
// decoded for the listing but not cached: the memory cost of a model
// stays deferred to its first prediction, as the lazy-load contract
// promises. Corrupt store entries are skipped rather than failing the
// list.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	store := r.store
	ids := append([]string(nil), r.order...)
	r.mu.Unlock()
	out := make([]ModelInfo, 0, len(ids))
	for _, id := range ids {
		if sm := r.peek(id); sm != nil {
			out = append(out, infoFor(id, sm.snap, sm.created))
		}
	}
	if store == nil {
		return out
	}
	entries, err := store.List()
	if err != nil {
		return out
	}
	for _, ent := range entries {
		if r.peek(ent.ID) != nil {
			continue
		}
		r.mu.Lock()
		di, haveInfo := r.infoCache[ent.ID]
		r.mu.Unlock()
		if haveInfo && di.gen == ent.Generation {
			out = append(out, di.info)
			continue
		}
		snap, _, gen, err := store.Load(ent.ID)
		if err != nil {
			continue
		}
		info := infoFor(ent.ID, snap, ent.Modified)
		r.mu.Lock()
		r.infoCache[ent.ID] = diskInfo{gen: gen, info: info}
		r.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// infoFor shapes one snapshot into its listing row.
func infoFor(id string, snap core.Snapshot, created time.Time) ModelInfo {
	return ModelInfo{
		ID:         id,
		Workload:   snap.Workload.String(),
		Spec:       snap.Spec,
		Dataset:    snap.Dataset,
		Dim:        len(snap.X),
		Epoch:      snap.Epoch,
		Loss:       snap.Loss,
		SimSeconds: snap.SimTime.Seconds(),
		Plan:       snap.Plan.String(),
		Created:    created,
	}
}

// memLen returns the number of models resident in memory.
func (r *Registry) memLen() int {
	return len(*r.models.Load())
}

// diskOnlyIDs lists store ids not yet cached in memory.
func (r *Registry) diskOnlyIDs() []string {
	r.mu.Lock()
	store := r.store
	r.mu.Unlock()
	if store == nil {
		return nil
	}
	ids, err := store.IDs()
	if err != nil {
		return nil
	}
	var out []string
	for _, id := range ids {
		if r.peek(id) == nil {
			out = append(out, id)
		}
	}
	return out
}

// Len returns the number of registered models, counting store-resident
// models this process has not loaded yet.
func (r *Registry) Len() int {
	return r.memLen() + len(r.diskOnlyIDs())
}
