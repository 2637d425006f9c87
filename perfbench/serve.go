package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/serve"
)

// serveSize is the input and budget of the serve-* workloads.
type serveSize struct {
	cols int
	// The served model: trainRows rows appended in trainChunks chunks,
	// trained for epochs epochs under a forced simulated plan.
	trainRows, trainChunks, epochs int
	// Each predict request carries batch examples of ~exampleNNZ
	// nonzeros, drawn from bodies distinct pre-encoded requests.
	batch, bodies int
	// requests is serve-predict's fixed work per round.
	requests int
	// serve-online appends onlineChunks chunks of chunkRows rows after
	// an initial chunk of initRows.
	initRows, onlineChunks, chunkRows int
}

const (
	// exampleNNZ is the mean nonzero count of a predict example.
	exampleNNZ = 40
	// publishEvery is serve-online's publication cadence in epochs: one,
	// so a round's end waits at most about two epochs after its last
	// append.
	publishEvery = 1
)

// predictSizes sizes serve-predict: a small served model and large
// requests (128 examples each), so that a few milliseconds of scheduler
// or GC delay on a 2-CPU host stays small against the request itself.
func predictSizes(small bool) serveSize {
	if small {
		return serveSize{cols: 1000, trainRows: 2000, trainChunks: 2, epochs: 3,
			batch: 128, bodies: 8, requests: 200}
	}
	return serveSize{cols: 4000, trainRows: 10000, trainChunks: 5, epochs: 8,
		batch: 128, bodies: 64, requests: 1000}
}

// onlineSizes sizes serve-online: a long ingest against the one-epoch
// publication cadence, and small predicts (32 examples) so each round
// gathers a few thousand of them.
func onlineSizes(small bool) serveSize {
	if small {
		return serveSize{cols: 1000, batch: 32, bodies: 16,
			initRows: 1000, onlineChunks: 5, chunkRows: 500}
	}
	return serveSize{cols: 4000, batch: 32, bodies: 256,
		initRows: 2000, onlineChunks: 100, chunkRows: 1000}
}

// probeServeSize is the serve probe's size: big enough for a few
// hundred predicts and a short online ingest.
var probeServeSize = serveSize{cols: 4000, trainRows: 4000, trainChunks: 4, epochs: 5,
	batch: 32, bodies: 64, requests: 600,
	initRows: 1000, onlineChunks: 20, chunkRows: 500}

// streamName is the dataset every serve round appends to; each round
// runs a fresh dwserve process, so the name never collides.
const streamName = "bench"

// server is one dwserve process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	ctl  *http.Client
	mu   sync.Mutex
	logs []string // last lines of stderr, for error reports
	exit chan error
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts dwserve with default flags and returns once it
// accepts connections. Readiness is its "listening" log line followed
// by a successful dial, so no wait is a fixed sleep.
func startServer(path string) (*server, error) {
	if path == "" {
		return nil, fmt.Errorf("no dwserve binary given (-dwserve)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(path, "-addr", addr)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(cmd, true)
	s := &server{cmd: cmd, base: "http://" + addr, ctl: newClient(), exit: make(chan error, 1)}
	listening := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.logs) == 20 {
				s.logs = s.logs[1:]
			}
			s.logs = append(s.logs, line)
			s.mu.Unlock()
			if !seen && strings.Contains(line, "listening on") {
				seen = true
				close(listening)
			}
		}
		s.exit <- cmd.Wait()
	}()
	select {
	case <-listening:
	case err := <-s.exit:
		trackChild(cmd, false)
		return nil, fmt.Errorf("dwserve exited before listening: %v: %s", err, s.lastLogs())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("dwserve did not log readiness within 30s")
	}
	// The log line precedes the listener by microseconds; dial until the
	// listener answers.
	limit := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return s, nil
		}
		if time.Now().After(limit) {
			s.stop()
			return nil, fmt.Errorf("dwserve not accepting on %s: %v", addr, err)
		}
	}
}

func (s *server) lastLogs() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logs, " | ")
}

// rss returns the server's peak resident set size in MB.
func (s *server) rss() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // an already-exited process needs no kill
	<-s.exit
	trackChild(s.cmd, false)
}

// call sends one request on c and decodes a 200 or 202 response into
// out (if non-nil).
func call(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
		}
	}
	return nil
}

// The wire shapes the benchmark sends and reads; they mirror dwserve's
// JSON API.
type rowJSON struct {
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values"`
	Label   float64   `json:"label"`
}

type appendBody struct {
	Rows []rowJSON `json:"rows"`
	Cols int       `json:"cols,omitempty"`
}

type appendReply struct {
	Version uint64 `json:"version"`
	Rows    int    `json:"rows"`
}

type exampleJSON struct {
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values"`
}

type predictBody struct {
	Model    string        `json:"model"`
	Examples []exampleJSON `json:"examples"`
}

type predictReply struct {
	Predictions []float64 `json:"predictions"`
}

type trainBody struct {
	Model        string `json:"model"`
	Dataset      string `json:"dataset"`
	Access       string `json:"access"`
	ModelRep     string `json:"model_rep"`
	DataRep      string `json:"data_rep"`
	Executor     string `json:"executor"`
	Seed         int64  `json:"seed"`
	MaxEpochs    int    `json:"max_epochs"`
	Online       bool   `json:"online,omitempty"`
	PublishEvery int    `json:"publish_every,omitempty"`
}

type jobReply struct {
	JobID string `json:"job_id"`
}

type jobStatus struct {
	State  string  `json:"state"`
	Epoch  int     `json:"epoch"`
	Loss   float64 `json:"loss"`
	Error  string  `json:"error"`
	Online *struct {
		Rows              int     `json:"rows"`
		Published         int64   `json:"versions_published"`
		Promoted          int64   `json:"versions_promoted"`
		LastCandidateLoss float64 `json:"last_candidate_loss"`
		LastPublishMs     float64 `json:"last_publish_ms"`
	} `json:"online"`
}

type statsReply struct {
	Latency map[string]struct {
		Count int64   `json:"count"`
		P50Ms float64 `json:"p50_ms"`
	} `json:"latency"`
}

// serveInputs is what a serve run sends, generated once from the seed.
type serveInputs struct {
	sz serveSize
	// chunks are the append bodies in order; rows the same rows for
	// in-process appends.
	chunks [][]byte
	rows   [][]data.Row
	total  int
	// bodies are pre-encoded predict requests; examples their contents.
	bodies   [][]byte
	examples [][]model.Example
}

// chunkOf converts rows lo..hi of ds into an append body and the
// matching in-process rows.
func chunkOf(ds *data.Dataset, lo, hi int, first bool) ([]byte, []data.Row, error) {
	body := appendBody{}
	if first {
		body.Cols = ds.Cols()
	}
	rows := make([]data.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx, vals := ds.A.Row(i)
		idx = append([]int32(nil), idx...)
		vals = append([]float64(nil), vals...)
		body.Rows = append(body.Rows, rowJSON{Indices: idx, Values: vals, Label: ds.Labels[i]})
		rows = append(rows, data.Row{Indices: idx, Values: vals, Label: ds.Labels[i]})
	}
	raw, err := json.Marshal(body)
	return raw, rows, err
}

// newServeInputs generates the stream and the predict requests. The
// stream's chunk boundaries are the given row counts.
func newServeInputs(sz serveSize, seed int64, bounds []int, modelID string) (*serveInputs, error) {
	total := bounds[len(bounds)-1]
	ds := data.GenerateSparse(data.SparseConfig{
		Name: streamName, Rows: total, Cols: sz.cols, NNZPerRow: 12, Noise: 0.05, Seed: seed,
	})
	in := &serveInputs{sz: sz, total: total}
	lo := 0
	for k, hi := range bounds {
		raw, rows, err := chunkOf(ds, lo, hi, k == 0)
		if err != nil {
			return nil, err
		}
		in.chunks = append(in.chunks, raw)
		in.rows = append(in.rows, rows)
		lo = hi
	}
	ex := data.GenerateSparse(data.SparseConfig{
		Name: "bench-predict", Rows: sz.batch * sz.bodies, Cols: sz.cols, NNZPerRow: exampleNNZ, Seed: seed + 1,
	})
	for k, batch := range datasetBatches(ex, sz.batch, sz.bodies) {
		body := predictBody{Model: modelID}
		for _, e := range batch {
			body.Examples = append(body.Examples, exampleJSON{Indices: e.Idx, Values: e.Vals})
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("predict body %d: %w", k, err)
		}
		in.bodies = append(in.bodies, raw)
		in.examples = append(in.examples, batch)
	}
	return in, nil
}

// evenBounds returns the cumulative row counts of k chunks of per rows,
// after an optional first chunk of first rows.
func evenBounds(first, k, per int) []int {
	var out []int
	if first > 0 {
		out = append(out, first)
	}
	for i := 1; i <= k; i++ {
		out = append(out, first+i*per)
	}
	return out
}

// forcedPlan is the plan the serve-* train requests force, so the plan
// cache and feedback optimizer never choose: row-wise, PerNode,
// FullReplication on the simulated executor.
func forcedPlan(seed int64) core.Plan {
	return core.Plan{Access: model.RowWise, Machine: numa.Local2, ModelRep: core.PerNode,
		DataRep: core.FullReplication, Executor: core.ExecSimulated, Seed: seed}
}

func trainRequest(seed int64, epochs int) trainBody {
	return trainBody{Model: "svm", Dataset: streamName, Access: "row", ModelRep: "pernode",
		DataRep: "fullreplication", Executor: "simulated", Seed: seed, MaxEpochs: epochs}
}

// appendAll sends chunks in order on c, checking that every append
// publishes a strictly newer version. It returns each append's latency
// in ms and the last reply.
func appendAll(b *bench, c *http.Client, base string, chunks [][]byte, sl *spanLog, parent int64) ([]float64, appendReply, error) {
	var lat []float64
	var last appendReply
	for k, body := range chunks {
		var rep appendReply
		sp := sl.begin(parent, "serve", "POST /v1/datasets/append")
		t := time.Now()
		err := call(c, "POST", base+"/v1/datasets/"+streamName+"/append", body, &rep)
		lat = append(lat, msSince(t))
		sp.end()
		if err != nil {
			return nil, last, fmt.Errorf("append chunk %d: %w", k, err)
		}
		if k > 0 && rep.Version <= last.Version {
			b.fail("append chunk %d: version %d not above %d", k, rep.Version, last.Version)
		}
		last = rep
	}
	return lat, last, nil
}

// waitJob polls a job's status back to back (no sleep, so the wait
// adds no quantization) until done returns true.
func waitJob(c *http.Client, base, id string, limit time.Duration, done func(jobStatus) (bool, error)) (jobStatus, error) {
	end := time.Now().Add(limit)
	for {
		var st jobStatus
		if err := call(c, "GET", base+"/v1/jobs/"+id, nil, &st); err != nil {
			return st, err
		}
		switch st.State {
		case "failed", "cancelled":
			return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		ok, err := done(st)
		if err != nil || ok {
			return st, err
		}
		if time.Now().After(end) {
			return st, fmt.Errorf("job %s: condition not reached within %v (state %s, epoch %d)", id, limit, st.State, st.Epoch)
		}
	}
}

// finiteAll reports whether every value is a finite number.
func finiteAll(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// reproduce trains, in-process, the model the serve-predict train
// request produces on the same stream: the same chunks appended to a
// stream handle, the same forced simulated plan and seed. It also
// times data.Handle.Append on those chunks.
func reproduce(in *serveInputs, seed int64, epochs int) (core.Snapshot, float64, error) {
	h := data.NewStream(streamName, in.sz.cols, data.Classification)
	var spent time.Duration
	rows := 0
	for _, chunk := range in.rows {
		t := time.Now()
		if _, err := h.Append(chunk); err != nil {
			return core.Snapshot{}, 0, err
		}
		spent += time.Since(t)
		rows += len(chunk)
	}
	eng, err := core.New(model.NewSVM(), h.View(), forcedPlan(seed))
	if err != nil {
		return core.Snapshot{}, 0, err
	}
	defer eng.Close()
	for e := 0; e < epochs; e++ {
		eng.RunEpoch()
	}
	return eng.Snapshot(), float64(rows) / spent.Seconds(), nil
}

// loadLoop sends predicts on one connection until stop returns true,
// recording each request's latency and checking each reply.
func loadLoop(c *http.Client, base string, bodies [][]byte, start int, stop func(n int) bool,
	check func(k int, p predictReply) error, sl *spanLog, parent int64) (lat []float64, errs []error) {
	for n := 0; !stop(n); n++ {
		k := (start + n) % len(bodies)
		var rep predictReply
		sp := sl.begin(parent, "serve", "POST /v1/predict")
		t := time.Now()
		err := call(c, "POST", base+"/v1/predict", bodies[k], &rep)
		lat = append(lat, msSince(t))
		sp.end()
		if err == nil {
			err = check(k, rep)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return lat, errs
}

// runServePredict: a fresh dwserve per round trains one model under a
// forced plan, then two connections send a fixed number of predicts in
// a closed loop. Replies are checked against model.PredictBatch on the
// weights reproduced in-process.
func runServePredict(b *bench) error {
	sz := predictSizes(b.cfg.small)
	in, err := newServeInputs(sz, b.cfg.seed, evenBounds(0, sz.trainChunks, sz.trainRows/sz.trainChunks), "job-1")
	if err != nil {
		return err
	}
	snap, appendRate, err := reproduce(in, b.cfg.seed, sz.epochs)
	if err != nil {
		return err
	}
	spec := model.NewSVM()
	want := make([][]float64, len(in.examples))
	for k, batch := range in.examples {
		if want[k], err = model.PredictBatch(spec, snap.X, batch); err != nil {
			return err
		}
	}
	s := e2eSamples{tailQ: 0.99, roundTails: true}
	l := layerSamples{}
	var tracedGoals, plainGoals []float64
	err = b.rounds(minRounds(b.cfg), func(i int) error {
		traced := b.cfg.trace && i%2 == 0
		var sl *spanLog
		if traced {
			sl = b.spans
		}
		r, err := predictRound(b, in, want, snap.Loss, sl)
		if err != nil {
			return err
		}
		s.goals = append(s.goals, r.goal)
		s.setups = append(s.setups, r.setup)
		s.losses = append(s.losses, r.loss)
		s.rss = append(s.rss, r.rss)
		s.ops = append(s.ops, r.lat)
		if traced {
			tracedGoals = append(tracedGoals, r.goal)
			l.add("serve.predict_client_ms", median(r.lat))
			l.add("serve.predict_server_ms", r.serverP50)
			l.add("serve.append_ms", median(r.appendMs))
			l.add("runtime.heap_peak_mb", r.rss)
		} else {
			plainGoals = append(plainGoals, r.goal)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.report(s)
	if b.cfg.trace {
		overhead(l, tracedGoals, plainGoals)
		l.report(b)
		b.setLayer("serve.registry_predict_us", registryPredictUs(spec, snap, in.examples, b.spans, 0))
		b.setLayer("model.predict_ns_per_nnz", measurePredict(spec, snap.X, in.examples, b.spans, 0))
		b.setLayer("data.append_rows_per_s", appendRate)
	}
	return nil
}

// predictOutcome is one serve-predict round's measurements.
type predictOutcome struct {
	goal, setup, loss, rss, serverP50 float64
	lat, appendMs                     []float64
}

func predictRound(b *bench, in *serveInputs, want [][]float64, wantLoss float64, sl *spanLog) (predictOutcome, error) {
	var o predictOutcome
	root := sl.begin(0, "bench", "serve-predict.round")
	defer root.end()
	t0 := time.Now()
	sp := sl.begin(root.id, "serve", "start dwserve")
	srv, err := startServer(b.cfg.dwserve)
	sp.end()
	if err != nil {
		return o, err
	}
	defer srv.stop()
	o.appendMs, _, err = appendAll(b, srv.ctl, srv.base, in.chunks, sl, root.id)
	if err != nil {
		return o, err
	}
	body, _ := json.Marshal(trainRequest(b.cfg.seed, in.sz.epochs))
	var job jobReply
	sp = sl.begin(root.id, "serve", "POST /v1/train")
	if err := call(srv.ctl, "POST", srv.base+"/v1/train", body, &job); err != nil {
		return o, err
	}
	st, err := waitJob(srv.ctl, srv.base, job.JobID, 60*time.Second, func(st jobStatus) (bool, error) {
		return st.State == "done", nil
	})
	sp.end()
	if err != nil {
		return o, err
	}
	if job.JobID != "job-1" {
		return o, fmt.Errorf("train answered job %q; the predict bodies name job-1", job.JobID)
	}
	if st.Loss != wantLoss {
		b.fail("served model loss %v differs from the in-process reproduction's %v", st.Loss, wantLoss)
	}
	o.setup = time.Since(t0).Seconds()
	o.loss = st.Loss

	// Timed phase: a fixed number of predicts over two connections.
	var next atomic.Int64
	stop := func(int) bool { return next.Add(1) > int64(in.sz.requests) }
	check := func(k int, p predictReply) error {
		if len(p.Predictions) != len(want[k]) {
			return fmt.Errorf("predict body %d: %d predictions, want %d", k, len(p.Predictions), len(want[k]))
		}
		for i, v := range p.Predictions {
			if math.Float64bits(v) != math.Float64bits(want[k][i]) {
				return fmt.Errorf("predict body %d example %d: served %v, in-process PredictBatch %v", k, i, v, want[k][i])
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	lats := make([][]float64, 2)
	errs := make([][]error, 2)
	gs := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c], errs[c] = loadLoop(newClient(), srv.base, in.bodies, c*len(in.bodies)/2, stop, check, sl, root.id)
		}(c)
	}
	wg.Wait()
	o.goal = time.Since(gs).Seconds()
	for c := range lats {
		for range lats[c] {
			b.op()
		}
		o.lat = append(o.lat, lats[c]...)
		for _, err := range errs[c] {
			b.fail("%v", err)
		}
	}
	var stats statsReply
	if err := call(srv.ctl, "GET", srv.base+"/v1/stats", nil, &stats); err != nil {
		return o, err
	}
	o.serverP50 = stats.Latency["POST /v1/predict"].P50Ms
	o.rss, err = srv.rss()
	return o, err
}

// registryPredictUs times serve.Registry.Predict in-process on the
// served model and the same request batches, in µs per batch.
func registryPredictUs(spec model.Spec, snap core.Snapshot, batches [][]model.Example, sl *spanLog, parent int64) float64 {
	reg := serve.NewRegistry()
	if err := reg.Put("m", spec, snap); err != nil {
		panic(err) // a freshly trained GLM snapshot always registers
	}
	var per []float64
	for p := 0; p < kernelPasses; p++ {
		sp := sl.begin(parent, "serve", "Registry.Predict")
		t := time.Now()
		for _, batch := range batches {
			if _, err := reg.Predict("m", batch); err != nil {
				panic(err)
			}
		}
		per = append(per, float64(time.Since(t))/1e3/float64(len(batches)))
		sp.end()
	}
	return median(per)
}

// runServeOnline: a fresh dwserve per round runs an online job on a
// stream while one connection appends fixed chunks and another sends
// closed-loop predicts against the live model. The round's fixed work
// ends when the job has adopted every row and published a candidate
// at that row count.
func runServeOnline(b *bench) error {
	sz := onlineSizes(b.cfg.small)
	in, err := newServeInputs(sz, b.cfg.seed, evenBounds(sz.initRows, sz.onlineChunks, sz.chunkRows), "job-1")
	if err != nil {
		return err
	}
	s := e2eSamples{tailQ: 0.99, roundTails: true}
	l := layerSamples{}
	var tracedGoals, plainGoals []float64
	err = b.rounds(minRounds(b.cfg), func(i int) error {
		traced := b.cfg.trace && i%2 == 0
		var sl *spanLog
		if traced {
			sl = b.spans
		}
		r, err := onlineRound(b, in, sl)
		if err != nil {
			return err
		}
		s.goals = append(s.goals, r.goal)
		s.setups = append(s.setups, r.setup)
		s.losses = append(s.losses, r.loss)
		s.rss = append(s.rss, r.rss)
		s.ops = append(s.ops, r.lat)
		if traced {
			tracedGoals = append(tracedGoals, r.goal)
			l.add("serve.predict_client_ms", median(r.lat))
			l.add("serve.predict_server_ms", r.serverP50)
			l.add("serve.append_ms", median(r.appendMs))
			l.add("serve.adopt_lag_ms", r.adoptLag)
			l.add("serve.publish_ms", r.publishMs)
			l.add("serve.promote_ratio", r.promoteRatio)
			l.add("runtime.heap_peak_mb", r.rss)
		} else {
			plainGoals = append(plainGoals, r.goal)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.report(s)
	if b.cfg.trace {
		overhead(l, tracedGoals, plainGoals)
		l.report(b)
		h := data.NewStream(streamName, sz.cols, data.Classification)
		var spent time.Duration
		sp := b.spans.begin(0, "data", "Handle.Append")
		for _, chunk := range in.rows {
			t := time.Now()
			if _, err := h.Append(chunk); err != nil {
				return err
			}
			spent += time.Since(t)
		}
		sp.end()
		b.setLayer("data.append_rows_per_s", float64(in.total)/spent.Seconds())
	}
	return nil
}

// onlineOutcome is one serve-online round's measurements.
type onlineOutcome struct {
	goal, setup, loss, rss, serverP50 float64
	adoptLag, publishMs, promoteRatio float64
	lat, appendMs                     []float64
}

func onlineRound(b *bench, in *serveInputs, sl *spanLog) (onlineOutcome, error) {
	var o onlineOutcome
	root := sl.begin(0, "bench", "serve-online.round")
	defer root.end()
	t0 := time.Now()
	sp := sl.begin(root.id, "serve", "start dwserve")
	srv, err := startServer(b.cfg.dwserve)
	sp.end()
	if err != nil {
		return o, err
	}
	defer srv.stop()
	// Set-up: the first chunk, the online job, and its first promoted
	// model.
	if _, _, err := appendAll(b, srv.ctl, srv.base, in.chunks[:1], sl, root.id); err != nil {
		return o, err
	}
	req := trainRequest(b.cfg.seed, 1<<30)
	req.Online = true
	req.PublishEvery = publishEvery
	body, _ := json.Marshal(req)
	var job jobReply
	if err := call(srv.ctl, "POST", srv.base+"/v1/train", body, &job); err != nil {
		return o, err
	}
	if job.JobID != "job-1" {
		return o, fmt.Errorf("train answered job %q; the predict bodies name job-1", job.JobID)
	}
	if _, err := waitJob(srv.ctl, srv.base, job.JobID, 60*time.Second, func(st jobStatus) (bool, error) {
		return st.Online != nil && st.Online.Promoted >= 1, nil
	}); err != nil {
		return o, err
	}
	o.setup = time.Since(t0).Seconds()

	// Timed phase: ingest on one connection, predicts on the other.
	var done atomic.Bool
	var lat []float64
	var errs []error
	var wg sync.WaitGroup
	check := func(k int, p predictReply) error {
		if len(p.Predictions) != in.sz.batch {
			return fmt.Errorf("predict body %d: %d predictions, want %d", k, len(p.Predictions), in.sz.batch)
		}
		if !finiteAll(p.Predictions) {
			return fmt.Errorf("predict body %d: non-finite prediction in %v", k, p.Predictions)
		}
		return nil
	}
	gs := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		lat, errs = loadLoop(newClient(), srv.base, in.bodies, 0, func(int) bool { return done.Load() }, check, sl, root.id)
	}()
	appendMs, last, err := appendAll(b, srv.ctl, srv.base, in.chunks[1:], sl, root.id)
	if err != nil {
		done.Store(true)
		wg.Wait()
		return o, err
	}
	lastAck := time.Now()
	var published int64
	adopted := false
	st, err := waitJob(srv.ctl, srv.base, job.JobID, 60*time.Second, func(st jobStatus) (bool, error) {
		if st.Online == nil {
			return false, fmt.Errorf("job %s reports no online state", job.JobID)
		}
		if !adopted && st.Online.Rows == in.total {
			adopted = true
			o.adoptLag = msSince(lastAck)
			published = st.Online.Published
		}
		return adopted && st.Online.Published > published, nil
	})
	o.goal = time.Since(gs).Seconds()
	done.Store(true)
	wg.Wait()
	if err != nil {
		return o, err
	}
	o.appendMs = appendMs
	o.lat = lat
	for range lat {
		b.op()
	}
	for _, err := range errs {
		b.fail("%v", err)
	}
	if last.Rows != in.total || st.Online.Rows != in.total {
		b.fail("online rows: last append reported %d, job %d, sent %d", last.Rows, st.Online.Rows, in.total)
	}
	o.loss = st.Online.LastCandidateLoss
	o.publishMs = st.Online.LastPublishMs
	o.promoteRatio = float64(st.Online.Promoted) / float64(st.Online.Published)
	var stats statsReply
	if err := call(srv.ctl, "GET", srv.base+"/v1/stats", nil, &stats); err != nil {
		return o, err
	}
	o.serverP50 = stats.Latency["POST /v1/predict"].P50Ms
	o.rss, err = srv.rss()
	return o, err
}

// probeServe measures the serve layers at the probe size: one
// serve-predict round and one serve-online round on a fresh dwserve
// each, plus the in-process registry and stream append.
func probeServe(b *bench) (map[string]float64, error) {
	sz := probeServeSize
	out := map[string]float64{}
	in, err := newServeInputs(sz, b.cfg.seed, evenBounds(0, sz.trainChunks, sz.trainRows/sz.trainChunks), "job-1")
	if err != nil {
		return nil, err
	}
	snap, rate, err := reproduce(in, b.cfg.seed, sz.epochs)
	if err != nil {
		return nil, err
	}
	spec := model.NewSVM()
	want := make([][]float64, len(in.examples))
	for k, batch := range in.examples {
		if want[k], err = model.PredictBatch(spec, snap.X, batch); err != nil {
			return nil, err
		}
	}
	p, err := predictRound(b, in, want, snap.Loss, b.spans)
	if err != nil {
		return nil, err
	}
	out["serve.predict_client_ms"] = median(p.lat)
	out["serve.predict_server_ms"] = p.serverP50
	out["serve.append_ms"] = median(p.appendMs)
	out["serve.registry_predict_us"] = registryPredictUs(spec, snap, in.examples, b.spans, 0)
	out["data.append_rows_per_s"] = rate

	oin, err := newServeInputs(sz, b.cfg.seed, evenBounds(sz.initRows, sz.onlineChunks, sz.chunkRows), "job-1")
	if err != nil {
		return nil, err
	}
	on, err := onlineRound(b, oin, b.spans)
	if err != nil {
		return nil, err
	}
	out["serve.adopt_lag_ms"] = on.adoptLag
	out["serve.publish_ms"] = on.publishMs
	out["serve.promote_ratio"] = on.promoteRatio
	return out, nil
}
