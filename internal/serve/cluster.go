package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dimmwitted/internal/core"
)

// Peer-mode endpoints: the handful of routes a cluster coordinator
// (internal/cluster, cmd/dwcoord) drives on each dwserve peer. The
// wire format for models is the snapshot codec (CRC-validated on
// receipt); the transfer path for data is the same append API clients
// use, so a peer needs nothing cluster-specific to hold a shard.

// clusterMembership records the coordinator this server answers to,
// set by the coordinator's join handshake and surfaced in /v1/stats.
type clusterMembership struct {
	mu          sync.Mutex
	cluster     string
	coordinator string
	joined      time.Time
}

// ClusterStatus is the membership view in statsResponse.
type ClusterStatus struct {
	Cluster     string `json:"cluster"`
	Coordinator string `json:"coordinator"`
	JoinedAt    string `json:"joined_at"`
}

func (m *clusterMembership) status() *ClusterStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cluster == "" {
		return nil
	}
	return &ClusterStatus{
		Cluster:     m.cluster,
		Coordinator: m.coordinator,
		JoinedAt:    m.joined.UTC().Format(time.RFC3339),
	}
}

// joinRequest is the coordinator's handshake: it names the cluster and
// its own callback address so the peer can report who owns it.
type joinRequest struct {
	Cluster     string `json:"cluster"`
	Coordinator string `json:"coordinator"`
}

// joinResponse tells the coordinator what the peer can do.
type joinResponse struct {
	Machine  string   `json:"machine"`
	Datasets []string `json:"datasets"`
	Models   int      `json:"models"`
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !s.decodeJSON(w, r, &req, "join") {
		return
	}
	if req.Cluster == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("join request names no cluster"))
		return
	}
	s.cluster.mu.Lock()
	s.cluster.cluster = req.Cluster
	s.cluster.coordinator = req.Coordinator
	s.cluster.joined = time.Now()
	s.cluster.mu.Unlock()
	s.writeJSON(w, http.StatusOK, joinResponse{
		Machine:  s.sched.opts.Machine.Name,
		Datasets: s.sched.Catalog().Datasets(),
		Models:   s.sched.Models().Len(),
	})
}

// handleReplicaGet ships a registered model replica to the caller as
// an encoded snapshot — the coordinator's pull side of the combine.
func (s *Server) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, snap, ok := s.sched.Models().Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(core.EncodeSnapshot(snap))
}

// replicaPutResponse acknowledges an installed snapshot.
type replicaPutResponse struct {
	Model string  `json:"model"`
	Epoch int     `json:"epoch"`
	Loss  float64 `json:"loss"`
}

// handleReplicaPut installs an encoded snapshot under {id}: the
// coordinator's push side, used both to seed the next training round
// (warm_start then resumes from it) and to place the final combined
// model on its ring owners for serving. The codec's CRC rejects a
// corrupted transfer before anything reaches the registry.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		if tooBig, ok := err.(*http.MaxBytesError); ok {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("replica body exceeds the %d-byte limit (raise -max-body-bytes)", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("replica body: %w", err))
		return
	}
	snap, err := core.DecodeSnapshot(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.sched.Models().PutSnapshot(id, snap); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, replicaPutResponse{Model: id, Epoch: snap.Epoch, Loss: snap.Loss})
}

// rowJSON is one exported row, in the append API's encoding so a
// caller can feed it straight back into POST /v1/datasets/{id}/append.
type rowJSON struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Label   float64   `json:"label"`
}

// rowsResponse is one page of a dataset export.
type rowsResponse struct {
	Dataset string    `json:"dataset"`
	Task    string    `json:"task"`
	Cols    int       `json:"cols"`
	Start   int       `json:"start"`
	Total   int       `json:"total"`
	Rows    []rowJSON `json:"rows"`
}

// handleRows exports a row range of a named dataset — the shard-pull
// side of the wire protocol, letting a coordinator (or a recovering
// peer) fetch data it does not hold locally. Rows come out sparse
// regardless of storage; the append path accepts that encoding for
// every task.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ds, err := s.sched.Catalog().Dataset(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	start, count := 0, ds.Rows()
	if v := r.URL.Query().Get("start"); v != "" {
		if start, err = strconv.Atoi(v); err != nil || start < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad start %q", v))
			return
		}
	}
	if v := r.URL.Query().Get("count"); v != "" {
		if count, err = strconv.Atoi(v); err != nil || count < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad count %q", v))
			return
		}
	}
	if start > ds.Rows() {
		start = ds.Rows()
	}
	end := start + count
	if end > ds.Rows() {
		end = ds.Rows()
	}
	rows := make([]rowJSON, 0, end-start)
	for i := start; i < end; i++ {
		idx, vals := ds.A.Row(i)
		rj := rowJSON{
			Indices: append([]int32(nil), idx...),
			Values:  append([]float64(nil), vals...),
		}
		if ds.Labels != nil {
			rj.Label = ds.Labels[i]
		}
		rows = append(rows, rj)
	}
	s.writeJSON(w, http.StatusOK, rowsResponse{
		Dataset: id,
		Task:    ds.Task.String(),
		Cols:    ds.Cols(),
		Start:   start,
		Total:   ds.Rows(),
		Rows:    rows,
	})
}
