package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"dimmwitted/internal/metrics"
)

// Handler is the coordinator's HTTP front end.
//
//	POST /v1/cluster/join   {"addr": "host:port"} — register a peer
//	GET  /v1/cluster/peers  — peer pool with per-peer counters
//	POST /v1/train          — submit a cluster TrainRequest
//	GET  /v1/jobs           — list cluster jobs
//	GET  /v1/jobs/{id}      — one job's status
//	POST /v1/predict        — proxy to the model's ring owner
//	GET  /metrics           — Prometheus text exposition
type Handler struct {
	coord   *Coordinator
	mux     *http.ServeMux
	maxBody int64
	started time.Time
}

// NewHandler wraps a coordinator. maxBody caps request bodies in
// bytes (0 means 16 MiB; negative disables the cap — predict proxies
// are small, datasets enter via the coordinator process, not this
// API).
func NewHandler(c *Coordinator, maxBody int64) *Handler {
	if maxBody == 0 {
		maxBody = 16 << 20
	}
	h := &Handler{coord: c, mux: http.NewServeMux(), maxBody: maxBody, started: time.Now()}
	h.mux.HandleFunc("POST /v1/cluster/join", h.handleJoin)
	h.mux.HandleFunc("GET /v1/cluster/peers", h.handlePeers)
	h.mux.HandleFunc("POST /v1/train", h.handleTrain)
	h.mux.HandleFunc("GET /v1/jobs", h.handleJobs)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.handleJob)
	h.mux.HandleFunc("POST /v1/predict", h.handlePredict)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, h.maxBody)
	}
	h.mux.ServeHTTP(w, r)
}

// writeJSON encodes v before the status line is sent, so a value
// encoding/json refuses (a NaN or ±Inf float) answers 500 with the
// error envelope instead of code over an empty body.
func (h *Handler) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(errorResponse{Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func (h *Handler) writeError(w http.ResponseWriter, code int, err error) {
	h.writeJSON(w, code, errorResponse{Error: err.Error()})
}

func (h *Handler) decodeJSON(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%s body exceeds the %d-byte limit", what, tooBig.Limit))
			return false
		}
		h.writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s request: %w", what, err))
		return false
	}
	return true
}

func (h *Handler) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if !h.decodeJSON(w, r, &req, "join") {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		h.writeError(w, http.StatusBadRequest, fmt.Errorf("join requires addr"))
		return
	}
	ps, err := h.coord.Join(req.Addr)
	if err != nil {
		h.writeError(w, http.StatusBadGateway, err)
		return
	}
	h.writeJSON(w, http.StatusOK, ps)
}

func (h *Handler) handlePeers(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, struct {
		Cluster string       `json:"cluster"`
		Peers   []PeerStatus `json:"peers"`
	}{h.coord.opts.Name, h.coord.Peers()})
}

func (h *Handler) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if !h.decodeJSON(w, r, &req, "train") {
		return
	}
	id, err := h.coord.Train(req)
	if err != nil {
		h.writeError(w, http.StatusBadRequest, err)
		return
	}
	h.writeJSON(w, http.StatusAccepted, trainResponse{JobID: id, Status: JobQueued})
}

func (h *Handler) handleJobs(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{h.coord.Jobs()})
}

func (h *Handler) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := h.coord.Status(r.PathValue("id"))
	if !ok {
		h.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	h.writeJSON(w, http.StatusOK, st)
}

func (h *Handler) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if !h.decodeJSON(w, r, &req, "predict") {
		return
	}
	if req.Model == "" {
		h.writeError(w, http.StatusBadRequest, fmt.Errorf("predict requires model"))
		return
	}
	preds, addr, err := h.coord.Predict(req.Model, req.Examples)
	if err != nil {
		h.writeError(w, http.StatusBadGateway, err)
		return
	}
	h.writeJSON(w, http.StatusOK, struct {
		Model       string    `json:"model"`
		Peer        string    `json:"peer"`
		Predictions []float64 `json:"predictions"`
		Count       int       `json:"count"`
	}{req.Model, addr, preds, len(preds)})
}

// handleMetrics renders the Prometheus text exposition for the
// coordinator: pool/ring gauges plus every peer's cluster counters.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewPromWriter(w)

	peers := h.coord.Peers()
	alive := 0
	series := make([]metrics.CounterSeries, len(peers))
	for i, ps := range peers {
		if ps.Alive {
			alive++
		}
		series[i] = metrics.CounterSeries{Labels: "{" + metrics.PromLabel("peer", ps.Addr) + "}", Values: ps.Counters.Counts[:]}
	}
	p.Gauge("dwcoord_peers", "Known peers in the pool.", float64(len(peers)))
	p.Gauge("dwcoord_peers_alive", "Peers currently on the serving ring.", float64(alive))
	p.Gauge("dwcoord_uptime_seconds", "Seconds since the coordinator started.", math.Round(time.Since(h.started).Seconds()))

	byState := map[string]int{}
	for _, j := range h.coord.Jobs() {
		byState[j.State]++
	}
	p.Family("dwcoord_jobs", "Cluster jobs by state.", "gauge")
	for _, st := range []string{JobQueued, JobRunning, JobDone, JobFailed} {
		p.Sample("dwcoord_jobs", "{"+metrics.PromLabel("state", st)+"}", float64(byState[st]))
	}

	p.Counters("dwcoord_peer_", metrics.ClusterTable(), series...)
}
