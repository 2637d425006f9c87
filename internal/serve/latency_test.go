package serve

import (
	"net/http"
	"testing"
)

// TestHTTPLatencyContract is the end-to-end latency contract:
// /v1/stats must report per-route histograms whose counts match the
// requests actually issued and whose percentiles are sane
// (p50 <= p95 <= p99 <= max).
func TestHTTPLatencyContract(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := ts.Client()

	// A normal train-then-predict session; the histograms must
	// account for every request.
	id, _ := trainToCompletion(t, client, ts.URL, TrainRequest{
		Model: "svm", Dataset: "reuters", MaxEpochs: 2,
	})
	const predicts = 20
	for i := 0; i < predicts; i++ {
		var presp predictResponse
		code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/predict", predictRequest{
			Model:    id,
			Examples: []exampleJSON{{Indices: []int32{int32(i % 7)}, Values: []float64{1}}},
		}, &presp)
		if code != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, code)
		}
	}

	var stats statsResponse
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatal("GET /v1/stats failed")
	}
	pl, ok := stats.Latency["POST /v1/predict"]
	if !ok {
		t.Fatalf("stats latency map %v has no predict route", stats.Latency)
	}
	if pl.Count != predicts {
		t.Fatalf("predict latency count %d, want %d (counts must match issued requests)", pl.Count, predicts)
	}
	if !(pl.P50Ms <= pl.P95Ms && pl.P95Ms <= pl.P99Ms && pl.P99Ms <= pl.MaxMs) {
		t.Fatalf("predict percentiles not monotone: %+v", pl)
	}
	if pl.P50Ms <= 0 || pl.MeanMs <= 0 {
		t.Fatalf("predict latency summary has empty timings: %+v", pl)
	}
	if tl := stats.Latency["POST /v1/train"]; tl.Count != 1 {
		t.Fatalf("train latency count %d, want 1", tl.Count)
	}
}
