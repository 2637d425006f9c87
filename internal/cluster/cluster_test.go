package cluster

import (
	"net/http/httptest"
	"testing"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/serve"
)

// testPeer is one in-process dwserve node: a serve.Server behind an
// httptest listener, with its own dataset catalog as a real node has.
type testPeer struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startPeers(t *testing.T, n int) []*testPeer {
	t.Helper()
	peers := make([]*testPeer, n)
	for i := range peers {
		srv := serve.NewServer(serve.Options{Machine: numa.Local4})
		ts := httptest.NewServer(srv)
		peers[i] = &testPeer{srv: srv, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	return peers
}

// unionDataset registers a small deterministic classification stream
// under name in the coordinator's catalog and returns its published
// view. Rows are sparse with a drifting support so every shard sees
// every feature. The view must hold exactly rows rows: a stream left
// over under the same name would make the parity tests compare a
// different union.
func unionDataset(t *testing.T, c *Coordinator, name string, rows, cols int) *data.Dataset {
	t.Helper()
	h, err := c.catalog.Stream(name, cols, data.Classification)
	if err != nil {
		t.Fatalf("Stream(%s): %v", name, err)
	}
	batch := make([]data.Row, 0, rows)
	for i := 0; i < rows; i++ {
		j := int32(i % cols)
		k := int32((i*7 + 3) % cols)
		if k == j {
			k = (k + 1) % int32(cols)
		}
		label := 1.0
		if i%3 == 0 {
			label = -1.0
		}
		idx := []int32{j, k}
		vals := []float64{1 + float64(i%5)/4, label * (0.5 + float64(i%7)/8)}
		if k < j {
			idx = []int32{k, j}
			vals[0], vals[1] = vals[1], vals[0]
		}
		batch = append(batch, data.Row{Indices: idx, Values: vals, Label: label})
	}
	ds, err := h.Append(batch)
	if err != nil {
		t.Fatalf("Append(%s): %v", name, err)
	}
	if ds.Rows() != rows {
		t.Fatalf("stream %s holds %d rows, want %d", name, ds.Rows(), rows)
	}
	return ds
}

func newTestCoordinator(t *testing.T, peers []*testPeer, opts Options) *Coordinator {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c := NewCoordinator(opts)
	for _, p := range peers {
		if _, err := c.Join(p.ts.URL); err != nil {
			t.Fatalf("Join(%s): %v", p.ts.URL, err)
		}
	}
	return c
}

// TestClusterParityWithSingleNode is the PerCluster correctness
// anchor: three peers, each training the round-robin shard of a union
// dataset under a forced FixedOrder plan with one combine per epoch,
// must reproduce a single-node PerNode/Sharding run over the union
// BITWISE — the cluster's pull→average→re-seed round is the engine's
// own end-of-epoch combine, one level up, so identical traversal plus
// identical summation order means identical floats.
func TestClusterParityWithSingleNode(t *testing.T) {
	const (
		rows, cols = 90, 16
		epochs     = 6
		step       = 0.1
		decay      = 0.95
	)
	peers := startPeers(t, 3)
	coord := newTestCoordinator(t, peers, Options{})
	union := unionDataset(t, coord, "cl-parity-union", rows, cols)
	id, err := coord.Train(TrainRequest{
		Model:      "svm",
		Dataset:    "cl-parity-union",
		MaxEpochs:  epochs,
		Executor:   "simulated",
		Step:       step,
		StepDecay:  decay,
		Seed:       7,
		FixedOrder: true,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	st, err := coord.Wait(id, 60*time.Second)
	if err != nil {
		t.Fatalf("Wait: %v (status %+v)", err, st)
	}
	if st.State != JobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Epoch != epochs || st.Rounds != epochs {
		t.Fatalf("job ran %d epochs in %d rounds, want %d in %d", st.Epoch, st.Round, epochs, epochs)
	}
	clusterX, ok := coord.Model(id)
	if !ok {
		t.Fatal("finished job has no model")
	}

	// Reference: one engine over the union. Workers=3 on a 4-node
	// topology gives three per-worker replicas; Sharding hands worker k
	// rows {i : i mod 3 == k} under the identity traversal — the exact
	// row streams the coordinator shipped to its three peers. A
	// different seed on purpose: FixedOrder must make it irrelevant.
	eng, err := core.New(model.NewSVM(), union, core.Plan{
		Access:     model.RowWise,
		ModelRep:   core.PerNode,
		DataRep:    core.Sharding,
		Machine:    numa.Local4,
		Workers:    3,
		Executor:   core.ExecSimulated,
		Step:       step,
		StepDecay:  decay,
		Seed:       999,
		SyncRounds: -1,
		FixedOrder: true,
	})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer eng.Close()
	eng.RunEpochs(epochs)
	refX := eng.Model()

	if len(clusterX) != len(refX) {
		t.Fatalf("model dims differ: cluster %d vs single-node %d", len(clusterX), len(refX))
	}
	for i := range refX {
		if clusterX[i] != refX[i] {
			t.Fatalf("X[%d]: cluster %v != single-node %v (bitwise parity broken)", i, clusterX[i], refX[i])
		}
	}

	// Serving half: the coordinator proxies predicts to the ring owner
	// and they score against the combined model.
	preds, peer, err := coord.Predict(id, []Example{
		{Indices: []int32{0, 1}, Values: []float64{1, 1}},
		{Indices: []int32{2}, Values: []float64{-1}},
	})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(preds) != 2 || peer == "" {
		t.Fatalf("Predict returned %d preds via %q, want 2 via a peer", len(preds), peer)
	}
	for _, p := range preds {
		if p != 1 && p != -1 {
			t.Fatalf("SVM prediction %v is not a class label", p)
		}
	}
}

// TestClusterFailoverMidRun kills one peer between rounds and checks
// that its shard fails over: the survivor re-ingests the rows, resumes
// from the last combined checkpoint, the job completes — and because
// the re-pushed shard replays the identical row stream from the
// identical seed, the final model still matches the single-node run
// bitwise. Serving keeps answering through the ring successors.
func TestClusterFailoverMidRun(t *testing.T) {
	const (
		rows, cols = 60, 12
		epochs     = 5
		step       = 0.1
		decay      = 0.9
	)
	peers := startPeers(t, 3)
	var killed string
	coord := newTestCoordinator(t, peers, Options{
		RoundHook: func(jobID string, round int) {
			if round == 3 && killed == "" {
				killed = peers[1].ts.URL
				peers[1].ts.Close()
			}
		},
	})
	union := unionDataset(t, coord, "cl-failover-union", rows, cols)
	id, err := coord.Train(TrainRequest{
		Model:      "svm",
		Dataset:    "cl-failover-union",
		MaxEpochs:  epochs,
		Executor:   "simulated",
		Step:       step,
		StepDecay:  decay,
		FixedOrder: true,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	st, err := coord.Wait(id, 60*time.Second)
	if err != nil {
		t.Fatalf("Wait: %v (status %+v)", err, st)
	}
	if st.State != JobDone {
		t.Fatalf("job ended %s after peer kill: %s", st.State, st.Error)
	}
	if st.Failovers == 0 {
		t.Fatal("peer was killed mid-run but the job recorded no failover")
	}
	for i, owner := range st.Shards {
		if owner == killed {
			t.Fatalf("shard %d still assigned to dead peer %s", i, killed)
		}
	}
	for _, addr := range st.ServedOn {
		if addr == killed {
			t.Fatalf("final model placed on dead peer %s", killed)
		}
	}

	clusterX, ok := coord.Model(id)
	if !ok {
		t.Fatal("finished job has no model")
	}
	eng, err := core.New(model.NewSVM(), union, core.Plan{
		Access:     model.RowWise,
		ModelRep:   core.PerNode,
		DataRep:    core.Sharding,
		Machine:    numa.Local4,
		Workers:    3,
		Executor:   core.ExecSimulated,
		Step:       step,
		StepDecay:  decay,
		SyncRounds: -1,
		FixedOrder: true,
	})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer eng.Close()
	eng.RunEpochs(epochs)
	refX := eng.Model()
	for i := range refX {
		if clusterX[i] != refX[i] {
			t.Fatalf("X[%d] after failover: cluster %v != single-node %v", i, clusterX[i], refX[i])
		}
	}

	// The dead peer is off the ring; predictions still answer.
	preds, peer, err := coord.Predict(id, []Example{{Indices: []int32{1}, Values: []float64{1}}})
	if err != nil {
		t.Fatalf("Predict after failover: %v", err)
	}
	if len(preds) != 1 || peer == killed {
		t.Fatalf("Predict answered %d preds via %q (dead peer %q)", len(preds), peer, killed)
	}

	// The absorbing peers' counters recorded the failover.
	total := int64(0)
	for _, p := range coord.Peers() {
		total += p.Counters.Counts[metrics.PeerFailovers]
	}
	if total == 0 {
		t.Fatal("no peer counter recorded the absorbed shard")
	}
}

// TestClusterTrainValidation covers the coordinator's fail-fast paths.
func TestClusterTrainValidation(t *testing.T) {
	coord := NewCoordinator(Options{Logf: t.Logf})
	if _, err := coord.Train(TrainRequest{Model: "svm", Dataset: "reuters"}); err == nil {
		t.Fatal("Train with no peers succeeded")
	}
	peers := startPeers(t, 1)
	coord = newTestCoordinator(t, peers, Options{})
	if _, err := coord.Train(TrainRequest{Model: "nope", Dataset: "reuters"}); err == nil {
		t.Fatal("Train with unknown model succeeded")
	}
	if _, err := coord.Train(TrainRequest{Model: "svm", Dataset: "no-such-dataset"}); err == nil {
		t.Fatal("Train with unknown dataset succeeded")
	}
	if _, err := coord.Train(TrainRequest{Model: "svm", Dataset: "reuters", MaxEpochs: -1}); err == nil {
		t.Fatal("Train with negative max_epochs succeeded")
	}
	if _, ok := coord.Status("cl-404"); ok {
		t.Fatal("Status of unknown job reported ok")
	}
}
