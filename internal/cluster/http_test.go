package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWriteJSONUnencodableIs500: a value encoding/json refuses answers
// 500 with the JSON error envelope, not the intended status over an
// empty body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	(&Handler{}).writeJSON(rec, http.StatusOK, map[string]float64{"loss": math.NaN()})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(e.Error, "NaN") {
		t.Fatalf("status %d body %q (decode err %v), want 500 naming the NaN", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestMetricsMatchPeers scrapes the coordinator's /metrics after a
// trained and served job: the families keep their TYPE and HELP, and
// every dwcoord_peer_<key>_total{peer=...} sample reads the same as
// that peer's counters.<key> in GET /v1/cluster/peers.
func TestMetricsMatchPeers(t *testing.T) {
	peers := startPeers(t, 2)
	coord := newTestCoordinator(t, peers, Options{})
	unionDataset(t, coord, "cl-metrics-union", 40, 8)
	id, err := coord.Train(TrainRequest{Model: "svm", Dataset: "cl-metrics-union", MaxEpochs: 3, Executor: "simulated", Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if st, err := coord.Wait(id, 60*time.Second); err != nil || st.State != JobDone {
		t.Fatalf("job ended %+v: %v", st, err)
	}
	if _, _, err := coord.Predict(id, []Example{{Indices: []int32{0}, Values: []float64{1}}}); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	ts := httptest.NewServer(NewHandler(coord, 0))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"dwcoord_peers":                       {"gauge", "Known peers in the pool."},
		"dwcoord_peers_alive":                 {"gauge", "Peers currently on the serving ring."},
		"dwcoord_uptime_seconds":              {"gauge", "Seconds since the coordinator started."},
		"dwcoord_jobs":                        {"gauge", "Cluster jobs by state."},
		"dwcoord_peer_rounds_total":           {"counter", "Training rounds completed per peer."},
		"dwcoord_peer_epochs_total":           {"counter", "Shard epochs trained per peer."},
		"dwcoord_peer_shard_rows_total":       {"counter", "Shard rows shipped to each peer."},
		"dwcoord_peer_shard_bytes_total":      {"counter", "Shard bytes shipped to each peer."},
		"dwcoord_peer_replica_pulls_total":    {"counter", "Model replicas pulled from each peer."},
		"dwcoord_peer_replica_pushes_total":   {"counter", "Model replicas pushed to each peer."},
		"dwcoord_peer_replica_bytes_total":    {"counter", "Snapshot bytes moved to/from each peer."},
		"dwcoord_peer_failovers_total":        {"counter", "Shards absorbed from dead peers."},
		"dwcoord_peer_proxied_predicts_total": {"counter", "Predictions proxied to each peer."},
		"dwcoord_peer_proxy_fallbacks_total":  {"counter", "Predictions answered as a ring successor."},
	}
	help := map[string]string{}
	got := map[string][2]string{}
	samples := map[string]float64{} // "name{labels}" -> value
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			got[name] = [2]string{typ, help[name]}
		} else {
			series, val, ok := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(val, 64)
			if !ok || err != nil {
				t.Fatalf("malformed sample %q", line)
			}
			samples[series] = v
		}
	}
	if len(got) != len(want) {
		t.Errorf("exposition has %d families, want %d: %v", len(got), len(want), got)
	}
	for name, th := range want {
		if got[name] != th {
			t.Errorf("family %s: TYPE/HELP %q, want %q", name, got[name], th)
		}
	}
	if samples["dwcoord_peers"] != 2 || samples["dwcoord_peers_alive"] != 2 || samples[`dwcoord_jobs{state="done"}`] != 1 {
		t.Errorf("pool gauges: peers %v, alive %v, done jobs %v", samples["dwcoord_peers"], samples["dwcoord_peers_alive"], samples[`dwcoord_jobs{state="done"}`])
	}

	var list struct {
		Peers []struct {
			Addr     string             `json:"addr"`
			Counters map[string]float64 `json:"counters"`
		} `json:"peers"`
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/cluster/peers")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Peers) != 2 {
		t.Fatalf("peers listing %+v: %v", list, err)
	}
	var rounds, perPeer float64
	for _, p := range list.Peers {
		if len(p.Counters) != 10 {
			t.Errorf("peer %s lists %d counters, want 10: %v", p.Addr, len(p.Counters), p.Counters)
		}
		for key, v := range p.Counters {
			series := "dwcoord_peer_" + key + "_total" + `{peer="` + p.Addr + `"}`
			if s, ok := samples[series]; !ok || s != v {
				t.Errorf("%s = %v (present %v), peers counters.%s = %v", series, s, ok, key, v)
			}
			perPeer++
		}
		rounds += p.Counters["rounds"]
	}
	var peerSamples float64
	for series := range samples {
		if strings.HasPrefix(series, "dwcoord_peer_") {
			peerSamples++
		}
	}
	if peerSamples != perPeer {
		t.Errorf("%v dwcoord_peer_* samples, %v peer counters listed", peerSamples, perPeer)
	}
	if rounds == 0 {
		t.Error("no training rounds counted after a finished job")
	}
}
