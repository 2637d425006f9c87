// Package tune closes the loop from execution back into planning: a
// concurrent feedback store maps (workload, dataset fingerprint, plan
// axes) keys to exponentially weighted moving averages of observed
// seconds-per-epoch. The static cost model (internal/core's Figure 6
// word costs) remains the optimizer's prior; once a key has at least
// MinObservations recorded epochs, the measured cost overrides the
// prior through the core.CostModel seam, and an epsilon-exploration
// draw occasionally schedules the runner-up plan so the store can
// never lock in a stale winner. The table persists through an
// internal/ckpt store, so learned costs survive restarts.
package tune

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Key identifies one plan-cost observation stream. It carries the
// workload identity, the dataset-stats fingerprint (shape aggregates
// plus the registry name that pins the nonzero distribution: two
// datasets with equal shape but different skew may deserve different
// plans), and the full plan axes the optimizer chooses between:
// executor, model replication, data replication, access method,
// worker count and steal-chunk granularity. Two plans
// that differ in any axis measure independently.
type Key struct {
	// Workload is the workload family ("glm", "gibbs", "nn").
	Workload string `json:"workload"`
	// Model is the task's short name (the spec for GLM; "gibbs"/"nn").
	Model string `json:"model"`
	// Dataset is the registry name.
	Dataset string `json:"dataset"`
	// Rows, Cols and NNZ fingerprint the dataset's shape statistics.
	Rows int   `json:"rows"`
	Cols int   `json:"cols"`
	NNZ  int64 `json:"nnz"`
	// DatasetVersion pins the published view of a streamed dataset, so
	// costs measured on a smaller matrix never leak into decisions for
	// a grown one. Registry datasets are frozen at version 1; omitted
	// (zero) in stores written before streaming existed.
	DatasetVersion uint64 `json:"dataset_version,omitempty"`
	// Machine is the simulated topology name.
	Machine string `json:"machine"`
	// Executor, ModelRep, DataRep, Access, Workers and StealChunk are
	// the plan axes.
	Executor   string `json:"executor"`
	ModelRep   string `json:"model_rep"`
	DataRep    string `json:"data_rep"`
	Access     string `json:"access"`
	Workers    int    `json:"workers"`
	StealChunk int    `json:"steal_chunk"`
}

// String renders the key compactly for decision tables and logs.
func (k Key) String() string {
	task := k.Model
	if task == "" {
		task = k.Workload
	}
	return fmt.Sprintf("%s/%s %s/%s/%s %s w%d sc%d",
		task, k.Dataset, k.Access, k.ModelRep, k.DataRep, k.Executor, k.Workers, k.StealChunk)
}

// Sample is one finished epoch's measurement. The phase split is
// present only when the job was traced (HasSplit).
type Sample struct {
	// SecondsPerEpoch is the epoch's wall clock in seconds.
	SecondsPerEpoch float64
	// StepSeconds, FlushSeconds and BarrierSeconds split the epoch into
	// pure update work, master-synchronization traffic and
	// straggler/orchestration wait, when tracing supplied them.
	StepSeconds    float64
	FlushSeconds   float64
	BarrierSeconds float64
	// HasSplit reports whether the phase fields are meaningful.
	HasSplit bool
}

// Observation is the accumulated state for one key: an observation
// count and EWMAs of the epoch cost and its phase split.
type Observation struct {
	// Count is the number of epochs recorded.
	Count int64 `json:"count"`
	// SecondsPerEpoch is the EWMA of observed epoch wall clock.
	SecondsPerEpoch float64 `json:"seconds_per_epoch"`
	// SplitCount counts the samples that carried a phase split; the
	// split EWMAs below cover only those.
	SplitCount     int64   `json:"split_count,omitempty"`
	StepSeconds    float64 `json:"step_seconds,omitempty"`
	FlushSeconds   float64 `json:"flush_seconds,omitempty"`
	BarrierSeconds float64 `json:"barrier_seconds,omitempty"`
}

// Options configures a Store; zero values take defaults.
type Options struct {
	// Alpha is the EWMA weight of the newest sample; 0 means 0.25.
	Alpha float64
	// MinObservations is K: how many epochs a key needs before its
	// measured cost overrides the static prior. 0 means 3.
	MinObservations int
	// Epsilon is the exploration probability: how often the scheduler
	// runs the decision's runner-up instead of the winner. 0 means
	// 0.05; negative disables exploration.
	Epsilon float64
	// Seed drives the exploration draws; 0 means 1. The stream is
	// deterministic so tests (and reruns) are reproducible.
	Seed int64
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.25
	}
	if o.MinObservations == 0 {
		o.MinObservations = 3
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Epsilon < 0 {
		o.Epsilon = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Stats is a point-in-time summary of a store for /v1/stats.
type Stats struct {
	// Keys is the number of distinct observation streams.
	Keys int `json:"keys"`
	// Observations counts every recorded epoch since construction
	// (loaded state does not re-count).
	Observations int64 `json:"observations"`
	// Explorations counts the epsilon draws that chose the runner-up.
	Explorations int64 `json:"explorations"`
	// MinObservations and Epsilon echo the policy knobs.
	MinObservations int     `json:"min_observations"`
	Epsilon         float64 `json:"epsilon"`
	// Persistent reports whether the store is backed by a ckpt store.
	Persistent bool `json:"persistent"`
}

// Store is the concurrent feedback table. All methods are safe for
// concurrent use; Record is called from every scheduler worker after
// every epoch, Measured from every planning decision.
type Store struct {
	opts Options

	mu  sync.RWMutex
	obs map[Key]*Observation

	rngMu sync.Mutex
	rng   *rand.Rand

	recorded atomic.Int64
	explored atomic.Int64

	persistMu sync.Mutex
	persist   persister
}

// persister is the durable backing (see persist.go); nil keeps the
// store in memory only.
type persister interface {
	save(entries []Entry) error
	load() ([]Entry, error)
}

// NewStore builds an in-memory feedback store.
func NewStore(opts Options) *Store {
	opts = opts.normalize()
	return &Store{
		opts: opts,
		obs:  map[Key]*Observation{},
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// MinObservations returns K, the prior-to-measured crossover count.
func (s *Store) MinObservations() int { return s.opts.MinObservations }

// Record folds one epoch's measurement into the key's EWMA. The first
// sample seeds the average; later samples blend with weight Alpha, so
// a drifting machine walks the estimate toward current reality while a
// single outlier epoch cannot flip a well-observed winner.
func (s *Store) Record(k Key, smp Sample) {
	s.mu.Lock()
	o := s.obs[k]
	if o == nil {
		o = &Observation{}
		s.obs[k] = o
	}
	o.Count++
	o.SecondsPerEpoch = ewma(o.SecondsPerEpoch, smp.SecondsPerEpoch, o.Count, s.opts.Alpha)
	if smp.HasSplit {
		o.SplitCount++
		o.StepSeconds = ewma(o.StepSeconds, smp.StepSeconds, o.SplitCount, s.opts.Alpha)
		o.FlushSeconds = ewma(o.FlushSeconds, smp.FlushSeconds, o.SplitCount, s.opts.Alpha)
		o.BarrierSeconds = ewma(o.BarrierSeconds, smp.BarrierSeconds, o.SplitCount, s.opts.Alpha)
	}
	s.mu.Unlock()
	s.recorded.Add(1)
}

// ewma blends a new sample into a running average: the first sample
// seeds it, later ones get weight alpha.
func ewma(old, sample float64, count int64, alpha float64) float64 {
	if count <= 1 {
		return sample
	}
	return alpha*sample + (1-alpha)*old
}

// Lookup returns the key's accumulated observation, regardless of
// whether it has crossed the K threshold.
func (s *Store) Lookup(k Key) (Observation, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o := s.obs[k]
	if o == nil {
		return Observation{}, false
	}
	return *o, true
}

// Measured returns the key's EWMA seconds-per-epoch, with ok true only
// once the key has at least MinObservations epochs — the crossover
// where measurement overrides the static prior.
func (s *Store) Measured(k Key) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o := s.obs[k]
	if o == nil || o.Count < int64(s.opts.MinObservations) {
		return 0, false
	}
	return o.SecondsPerEpoch, true
}

// Explore draws the epsilon-exploration decision: true means the
// caller should schedule the decision's runner-up plan instead of the
// winner (and is counted). The draw stream is seeded and serialized,
// so a single-store run is reproducible.
func (s *Store) Explore() bool {
	if s.opts.Epsilon <= 0 {
		return false
	}
	s.rngMu.Lock()
	hit := s.rng.Float64() < s.opts.Epsilon
	s.rngMu.Unlock()
	if hit {
		s.explored.Add(1)
	}
	return hit
}

// Len returns the number of distinct keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.obs)
}

// Stats summarises the store.
func (s *Store) Stats() Stats {
	s.persistMu.Lock()
	persistent := s.persist != nil
	s.persistMu.Unlock()
	return Stats{
		Keys:            s.Len(),
		Observations:    s.recorded.Load(),
		Explorations:    s.explored.Load(),
		MinObservations: s.opts.MinObservations,
		Epsilon:         s.opts.Epsilon,
		Persistent:      persistent,
	}
}

// Entry is one serialized (key, observation) pair — the persistence
// and decision-table unit.
type Entry struct {
	Key Key         `json:"key"`
	Obs Observation `json:"obs"`
}

// Entries snapshots the table, in unspecified order.
func (s *Store) Entries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.obs))
	for k, o := range s.obs {
		out = append(out, Entry{Key: k, Obs: *o})
	}
	return out
}

// merge installs loaded entries, keeping whichever side of a collision
// has seen more epochs (a live stream outranks a stale disk image).
func (s *Store) merge(entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if cur := s.obs[e.Key]; cur != nil && cur.Count >= e.Obs.Count {
			continue
		}
		o := e.Obs
		s.obs[e.Key] = &o
	}
}
