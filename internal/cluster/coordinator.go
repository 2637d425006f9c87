package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/serve"
)

// Options configure a Coordinator.
type Options struct {
	// Name identifies the cluster in peer handshakes; "" means "dw".
	Name string
	// Advertise is the coordinator's own URL, reported to peers on
	// join so their /v1/stats can say who owns them.
	Advertise string
	// EpochsPerRound is how many local epochs each peer trains between
	// combines; 0 means 1 — the PerNode cadence (average every epoch),
	// which is also what makes a sharded run comparable to a
	// single-node run on the union.
	EpochsPerRound int
	// RingVNodes is the serving ring's virtual nodes per peer; 0 means
	// the default.
	RingVNodes int
	// PeerTimeout bounds each peer HTTP request; 0 means 30s.
	PeerTimeout time.Duration
	// RoundTimeout bounds one peer's training round; 0 means 2m.
	RoundTimeout time.Duration
	// ReplicateModels is how many ring nodes receive the final model
	// (owner + successors); 0 means 2, so one peer death never loses
	// serving.
	ReplicateModels int
	// ShardChunk is the append batch size when shipping shard rows; 0
	// means 500.
	ShardChunk int
	// RoundHook, when set, runs at the start of every round of every
	// job (after sharding, before the round's peer jobs are
	// submitted). Tests use it to kill a peer mid-run
	// deterministically.
	RoundHook func(jobID string, round int)
	// Logf receives coordinator progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) normalize() Options {
	if o.Name == "" {
		o.Name = "dw"
	}
	if o.EpochsPerRound <= 0 {
		o.EpochsPerRound = 1
	}
	if o.PeerTimeout == 0 {
		o.PeerTimeout = 30 * time.Second
	}
	if o.RoundTimeout == 0 {
		o.RoundTimeout = 2 * time.Minute
	}
	if o.ReplicateModels <= 0 {
		o.ReplicateModels = 2
	}
	if o.ShardChunk <= 0 {
		o.ShardChunk = 500
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// peerState is the coordinator's view of one dwserve node.
type peerState struct {
	client   *Peer
	machine  string
	alive    bool
	counters *metrics.ClusterCounters
}

// PeerStatus is the JSON view of one peer.
type PeerStatus struct {
	Addr     string                  `json:"addr"`
	Machine  string                  `json:"machine,omitempty"`
	Alive    bool                    `json:"alive"`
	Counters metrics.ClusterSnapshot `json:"counters"`
}

// TrainRequest is a cluster training job: PerCluster model
// replication over a sharded dataset, combined every round with the
// workload's own sync mode.
type TrainRequest struct {
	// Model is the GLM spec's short name ("svm", "lr", ...).
	Model string `json:"model"`
	// Dataset is a dataset name registered on the coordinator; its
	// rows are sharded round-robin across the live peers.
	Dataset string `json:"dataset"`
	// MaxEpochs is the total per-shard epoch budget; 0 means 10.
	MaxEpochs int `json:"max_epochs,omitempty"`
	// TargetLoss stops the job early once the combined model's loss on
	// the union dataset reaches it; 0 runs MaxEpochs.
	TargetLoss float64 `json:"target_loss,omitempty"`
	// EpochsPerRound overrides the coordinator's combine cadence for
	// this job; 0 inherits Options.EpochsPerRound.
	EpochsPerRound int `json:"epochs_per_round,omitempty"`
	// Executor selects each peer's local backend; "" means simulated.
	Executor string `json:"executor,omitempty"`
	// Step, StepDecay and Seed pin each peer's SGD schedule; zero
	// values take the model defaults on the peers.
	Step      float64 `json:"step,omitempty"`
	StepDecay float64 `json:"step_decay,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// FixedOrder makes every peer traverse its shard in identity
	// order, which together with round-robin sharding makes a cluster
	// run bitwise comparable to a single-node PerNode run on the
	// union.
	FixedOrder bool `json:"fixed_order,omitempty"`
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the JSON view of a cluster job.
type JobStatus struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Request TrainRequest `json:"request"`
	// Round/Rounds report combine progress; Epoch is per-shard epochs
	// completed; Loss is the combined model's loss on the union.
	Round     int     `json:"round"`
	Rounds    int     `json:"rounds"`
	Epoch     int     `json:"epoch"`
	Loss      float64 `json:"loss"`
	Converged bool    `json:"converged"`
	// Shards maps shard index to the peer currently owning it.
	Shards []string `json:"shards,omitempty"`
	// ServedOn lists the ring nodes holding the final model.
	ServedOn  []string `json:"served_on,omitempty"`
	Failovers int      `json:"failovers"`
	Error     string   `json:"error,omitempty"`
}

// shard is one row partition and its training state.
type shard struct {
	idx     int
	rows    []appendRow
	owner   string // peer addr
	stream  string // dataset name holding the rows on the owner
	attempt int
	// snap is the shard's latest pulled replica; its Dataset names the
	// stream on the owner, which makes it the seed template for the
	// next round (warm_start fills the dataset from the snapshot).
	snap core.Snapshot
}

// clusterJob is the coordinator-side job record.
type clusterJob struct {
	id  string
	req TrainRequest

	mu        sync.Mutex
	state     string
	round     int
	rounds    int
	epoch     int
	loss      float64
	converged bool
	failovers int
	shards    []*shard
	servedOn  []string
	err       string
	final     core.Snapshot
	done      chan struct{}
}

// Coordinator drives PerCluster training and ring-based serving over
// a set of dwserve peers.
type Coordinator struct {
	opts Options
	ring *Ring
	// catalog resolves the dataset names Train accepts.
	catalog *serve.Catalog

	mu    sync.Mutex
	peers map[string]*peerState
	jobs  map[string]*clusterJob
	order []string
}

// globalSeq numbers jobs and shard streams uniquely across every
// coordinator in the process: one peer can be joined by several
// coordinators, and each peer keeps one stream namespace, so two
// coordinators must never mint the same shard name.
var globalSeq atomic.Int64

// NewCoordinator builds a coordinator with no peers.
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.normalize()
	return &Coordinator{
		opts:    opts,
		ring:    NewRing(opts.RingVNodes),
		catalog: serve.NewCatalog(),
		peers:   map[string]*peerState{},
		jobs:    map[string]*clusterJob{},
	}
}

// Join handshakes with the peer at addr and adds it to the pool and
// the serving ring. Re-joining a known peer revives it.
func (c *Coordinator) Join(addr string) (PeerStatus, error) {
	p := NewPeer(addr, c.opts.PeerTimeout)
	jr, err := p.Join(c.opts.Name, c.opts.Advertise)
	if err != nil {
		return PeerStatus{}, err
	}
	c.mu.Lock()
	ps, ok := c.peers[p.Addr]
	if !ok {
		ps = &peerState{client: p, counters: &metrics.ClusterCounters{}}
		c.peers[p.Addr] = ps
	}
	ps.machine = jr.Machine
	ps.alive = true
	c.mu.Unlock()
	c.ring.Add(p.Addr)
	c.opts.Logf("peer %s joined (machine %s, %d datasets)", p.Addr, jr.Machine, len(jr.Datasets))
	return PeerStatus{Addr: p.Addr, Machine: jr.Machine, Alive: true}, nil
}

// Peers returns every known peer's status, sorted by address.
func (c *Coordinator) Peers() []PeerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerStatus, 0, len(c.peers))
	for addr, ps := range c.peers {
		out = append(out, PeerStatus{Addr: addr, Machine: ps.machine, Alive: ps.alive, Counters: ps.counters.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// alivePeers returns the live peer addresses, sorted for deterministic
// shard assignment.
func (c *Coordinator) alivePeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for addr, ps := range c.peers {
		if ps.alive {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// markDead removes a peer from the live set and the serving ring.
func (c *Coordinator) markDead(addr string) {
	c.mu.Lock()
	if ps, ok := c.peers[addr]; ok {
		ps.alive = false
	}
	c.mu.Unlock()
	c.ring.Remove(addr)
	c.opts.Logf("peer %s marked dead", addr)
}

func (c *Coordinator) peer(addr string) *peerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[addr]
}

func nextSeq() int64 { return globalSeq.Add(1) }

// Train validates a cluster request, enqueues the job and returns its
// ID. The rounds run on a background goroutine; poll Status or block
// on Wait.
func (c *Coordinator) Train(req TrainRequest) (string, error) {
	spec, err := model.ByName(req.Model)
	if err != nil {
		return "", err
	}
	ds, err := c.catalog.Dataset(req.Dataset)
	if err != nil {
		return "", err
	}
	if ds.Rows() == 0 {
		return "", fmt.Errorf("cluster: dataset %q has no rows", req.Dataset)
	}
	if req.MaxEpochs < 0 {
		return "", fmt.Errorf("cluster: negative max_epochs %d", req.MaxEpochs)
	}
	if req.MaxEpochs == 0 {
		req.MaxEpochs = 10
	}
	if len(c.alivePeers()) == 0 {
		return "", fmt.Errorf("cluster: no live peers (start dwserve with -peer-of, or POST /v1/cluster/join)")
	}
	j := &clusterJob{req: req, state: JobQueued, done: make(chan struct{})}
	j.id = fmt.Sprintf("cl-%d", nextSeq())
	c.mu.Lock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.mu.Unlock()
	go c.runJob(j, spec, ds)
	return j.id, nil
}

// Status returns a job's current status.
func (c *Coordinator) Status(id string) (JobStatus, bool) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists every job's status, oldest first.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := c.Status(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// Wait blocks until the job terminates or the timeout elapses.
func (c *Coordinator) Wait(id string, timeout time.Duration) (JobStatus, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("cluster: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-time.After(timeout):
		return j.status(), fmt.Errorf("cluster: job %s still %s after %v", id, j.status().State, timeout)
	}
	return j.status(), nil
}

// Model returns a finished job's combined model vector (read-only).
func (c *Coordinator) Model(id string) ([]float64, bool) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	return j.final.X, true
}

func (j *clusterJob) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Request:   j.req,
		Round:     j.round,
		Rounds:    j.rounds,
		Epoch:     j.epoch,
		Loss:      j.loss,
		Converged: j.converged,
		ServedOn:  append([]string(nil), j.servedOn...),
		Failovers: j.failovers,
		Error:     j.err,
	}
	for _, sh := range j.shards {
		st.Shards = append(st.Shards, sh.owner)
	}
	return st
}

func (j *clusterJob) fail(err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.err = err.Error()
	j.mu.Unlock()
	close(j.done)
}

// runJob drives one cluster job: shard, then round-train-combine
// until the epoch budget or the loss target is met, then place the
// final model on its ring owners.
func (c *Coordinator) runJob(j *clusterJob, spec model.Spec, ds *data.Dataset) {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	peers := c.alivePeers()
	if len(peers) == 0 {
		j.fail(fmt.Errorf("cluster: no live peers"))
		return
	}

	epochsPerRound := j.req.EpochsPerRound
	if epochsPerRound <= 0 {
		epochsPerRound = c.opts.EpochsPerRound
	}
	rounds := int(math.Ceil(float64(j.req.MaxEpochs) / float64(epochsPerRound)))
	if spec.Aggregate() {
		// One-pass aggregates restart their partials from zero each
		// run; a second warm-started round would fold the first's total
		// in again. One round of the full budget is both correct and
		// exactly the PerNode sharding layout one level up.
		rounds, epochsPerRound = 1, j.req.MaxEpochs
	}

	// Shard round-robin: shard k takes rows {i : i mod N == k} in
	// increasing order — the same assignment the engine's Sharding
	// strategy makes per worker under an identity traversal, so a
	// FixedOrder cluster run walks the exact row sequences of a
	// single-node PerNode run on the union.
	shards := make([]*shard, len(peers))
	for k, addr := range peers {
		shards[k] = &shard{idx: k, owner: addr}
	}
	for i := 0; i < ds.Rows(); i++ {
		idx, vals := ds.A.Row(i)
		row := appendRow{
			Indices: append([]int32(nil), idx...),
			Values:  append([]float64(nil), vals...),
		}
		if ds.Labels != nil {
			row.Label = ds.Labels[i]
		}
		sh := shards[i%len(shards)]
		sh.rows = append(sh.rows, row)
	}
	j.mu.Lock()
	j.shards = shards
	j.rounds = rounds
	j.mu.Unlock()

	task := "classification"
	if ds.Task == data.Regression {
		task = "regression"
	}
	for _, sh := range shards {
		if err := c.pushShard(j, sh, ds.Cols(), task); err != nil {
			if err = c.failover(j, sh, ds.Cols(), task, err); err != nil {
				j.fail(err)
				return
			}
		}
	}

	var combined []float64
	totalEpochs := 0
	for r := 1; r <= rounds; r++ {
		j.mu.Lock()
		j.round = r
		j.mu.Unlock()
		if c.opts.RoundHook != nil {
			c.opts.RoundHook(j.id, r)
		}
		target := epochsPerRound * r
		if target > j.req.MaxEpochs {
			target = j.req.MaxEpochs
		}
		var wg sync.WaitGroup
		errs := make([]error, len(shards))
		for i, sh := range shards {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				errs[i] = c.runShardRound(j, sh, r, target, combined, ds.Cols(), task)
			}(i, sh)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				j.fail(err)
				return
			}
		}

		// Cluster combine is the engine's end-of-epoch combine one
		// level up: the workload's own Combine over the shard replicas
		// in shard order, written back as the next round's warm seeds.
		xs := make([][]float64, len(shards))
		for i, sh := range shards {
			xs[i] = sh.snap.X
		}
		combined = make([]float64, ds.Cols())
		spec.Combine(xs, combined)
		totalEpochs = target
		loss := spec.Loss(ds, combined)
		j.mu.Lock()
		j.epoch = totalEpochs
		j.loss = loss
		j.mu.Unlock()
		c.opts.Logf("job %s round %d/%d: epoch %d, union loss %.6g", j.id, r, rounds, totalEpochs, loss)
		if j.req.TargetLoss > 0 && loss <= j.req.TargetLoss {
			j.mu.Lock()
			j.converged = true
			j.mu.Unlock()
			break
		}
	}

	// The final combined model, stamped with the union dataset's name,
	// goes to its ring owner and the next successors — PerCluster's
	// serving half. The coordinator keeps a copy for Status/Model.
	final := shards[0].snap
	final.Dataset = j.req.Dataset
	final.X = combined
	final.Epoch = totalEpochs
	final.DataRows, final.DataVersion = 0, 0
	modelID := j.id
	owners := c.ring.Owners(modelID, c.opts.ReplicateModels)
	var served []string
	for _, addr := range owners {
		ps := c.peer(addr)
		if ps == nil {
			continue
		}
		n, err := ps.client.PushReplica(modelID, final)
		if err != nil {
			c.markDead(addr)
			continue
		}
		ps.counters.ReplicaPush(n)
		served = append(served, addr)
	}
	if len(served) == 0 && len(owners) > 0 {
		j.fail(fmt.Errorf("cluster: no ring node accepted model %s", modelID))
		return
	}
	j.mu.Lock()
	j.state = JobDone
	j.final = final
	j.servedOn = served
	j.mu.Unlock()
	close(j.done)
}

// pushShard ships a shard's rows to its owner under a fresh stream
// name.
func (c *Coordinator) pushShard(j *clusterJob, sh *shard, cols int, task string) error {
	sh.stream = fmt.Sprintf("%s-s%d-v%d", j.id, sh.idx, nextSeq())
	ps := c.peer(sh.owner)
	if ps == nil || !ps.alive {
		return fmt.Errorf("cluster: shard %d owner %s is not alive", sh.idx, sh.owner)
	}
	for lo := 0; lo < len(sh.rows); lo += c.opts.ShardChunk {
		hi := lo + c.opts.ShardChunk
		if hi > len(sh.rows) {
			hi = len(sh.rows)
		}
		n, err := ps.client.Append(sh.stream, sh.rows[lo:hi], cols, task)
		if err != nil {
			return err
		}
		ps.counters.ShardPush(hi-lo, n)
	}
	c.opts.Logf("job %s shard %d: %d rows -> %s as %s", j.id, sh.idx, len(sh.rows), sh.owner, sh.stream)
	return nil
}

// runShardRound trains one shard for one round on its owner, failing
// over to a surviving peer (re-pushing the shard, resuming from the
// last combined seed) when the owner errors or dies mid-round.
func (c *Coordinator) runShardRound(j *clusterJob, sh *shard, round, targetEpochs int, combined []float64, cols int, task string) error {
	for {
		err := c.trainShardOnce(j, sh, round, targetEpochs, combined)
		if err == nil {
			return nil
		}
		if err = c.failover(j, sh, cols, task, err); err != nil {
			return err
		}
	}
}

func (c *Coordinator) trainShardOnce(j *clusterJob, sh *shard, round, targetEpochs int, combined []float64) error {
	ps := c.peer(sh.owner)
	if ps == nil || !ps.alive {
		return fmt.Errorf("cluster: shard %d owner %s is not alive", sh.idx, sh.owner)
	}
	var req serve.TrainRequest
	if round == 1 {
		// Cold round: force the peer plan outright. One worker,
		// PerMachine (the peer holds exactly one replica of the
		// PerCluster model), Sharding over its local stream.
		req = serve.TrainRequest{
			Model:      j.req.Model,
			Dataset:    sh.stream,
			Access:     "row",
			Executor:   j.req.Executor,
			ModelRep:   "permachine",
			DataRep:    "sharding",
			Workers:    1,
			Step:       j.req.Step,
			StepDecay:  j.req.StepDecay,
			Seed:       j.req.Seed,
			FixedOrder: j.req.FixedOrder,
			MaxEpochs:  targetEpochs,
		}
	} else {
		// Warm round: seed the peer with the combined model under the
		// shard's own snapshot as template — its Dataset names the
		// shard stream on this owner, which is what warm_start resumes
		// on. The engine restores step/epoch from the snapshot, so the
		// decay schedule continues exactly where the combine
		// interrupted it.
		seed := sh.snap
		seed.Dataset = sh.stream
		seed.X = combined
		seed.DataRows, seed.DataVersion = 0, 0
		seedID := fmt.Sprintf("%s-seed-r%d-s%d-a%d", j.id, round, sh.idx, sh.attempt)
		n, err := ps.client.PushReplica(seedID, seed)
		if err != nil {
			return err
		}
		ps.counters.ReplicaPush(n)
		req = serve.TrainRequest{WarmStart: seedID, MaxEpochs: targetEpochs}
	}
	jobID, err := ps.client.Train(req)
	if err != nil {
		return err
	}
	st, err := ps.client.WaitJob(jobID, c.opts.RoundTimeout)
	if err != nil {
		return err
	}
	snap, n, err := ps.client.PullReplica(jobID)
	if err != nil {
		return err
	}
	ps.counters.ReplicaPull(n)
	ps.counters.Round(st.Epoch - sh.snap.Epoch)
	sh.snap = snap
	return nil
}

// failover reassigns a shard after cause: its owner leaves the live
// set and the ring, the rows are re-pushed (the coordinator holds the
// dataset) to the next survivor under a fresh stream name, and the
// caller retries the round there — resuming from the job's last
// combined checkpoint, which the coordinator already holds.
func (c *Coordinator) failover(j *clusterJob, sh *shard, cols int, task string, cause error) error {
	c.markDead(sh.owner)
	c.opts.Logf("job %s shard %d: owner %s failed (%v); reassigning", j.id, sh.idx, sh.owner, cause)
	peers := c.alivePeers()
	if len(peers) == 0 {
		return fmt.Errorf("cluster: shard %d lost its owner and no peers remain: %w", sh.idx, cause)
	}
	sh.owner = peers[sh.idx%len(peers)]
	sh.attempt++
	j.mu.Lock()
	j.failovers++
	j.mu.Unlock()
	if ps := c.peer(sh.owner); ps != nil {
		ps.counters.Inc(metrics.PeerFailovers)
	}
	return c.pushShard(j, sh, cols, task)
}

// Predict proxies a prediction to the ring owner of modelID, walking
// the ring successors when a node is unreachable. Returns the
// predictions and the address that answered.
func (c *Coordinator) Predict(modelID string, examples []Example) ([]float64, string, error) {
	owners := c.ring.Owners(modelID, c.ring.Len())
	if len(owners) == 0 {
		return nil, "", fmt.Errorf("cluster: no live peers on the ring")
	}
	var lastErr error
	for i, addr := range owners {
		ps := c.peer(addr)
		if ps == nil || !ps.alive {
			continue
		}
		preds, err := ps.client.Predict(modelID, examples)
		if err != nil {
			lastErr = err
			continue
		}
		ps.counters.Inc(metrics.PeerProxiedPredicts)
		if i > 0 {
			ps.counters.Inc(metrics.PeerProxyFallbacks)
		}
		return preds, addr, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no live ring node for model %s", modelID)
	}
	return nil, "", lastErr
}
