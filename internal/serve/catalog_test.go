package serve

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"dimmwitted/internal/data"
)

// TestCatalogGeneratedHandlesAreFrozen: generated datasets come back
// frozen at version 1 — appends are rejected and every caller shares
// one immutable view, so no job can see another job's dataset
// mid-change.
func TestCatalogGeneratedHandlesAreFrozen(t *testing.T) {
	c := NewCatalog()
	h, err := c.Handle("reuters")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Frozen() {
		t.Fatal("registry handle not frozen")
	}
	if _, err := h.Append([]data.Row{{Indices: []int32{0}, Values: []float64{1}}}); err == nil {
		t.Fatal("append to a frozen registry dataset succeeded")
	}
	a, err := c.Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Dataset("reuters")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Dataset returned distinct views of a frozen dataset")
	}
	if a.Version != 1 {
		t.Fatalf("registry dataset version = %d, want 1", a.Version)
	}
	if _, err := c.Stream("reuters", 10, data.Classification); err == nil ||
		!strings.Contains(err.Error(), "frozen") {
		t.Fatalf("Stream over a registry name = %v, want frozen error", err)
	}
	if _, err := c.Dataset("no-such-dataset"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestCatalogStreamShape: a stream's shape is fixed at creation.
func TestCatalogStreamShape(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Stream("", 5, data.Classification); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Stream("test-shape", 0, data.Classification); err == nil {
		t.Fatal("zero cols accepted")
	}
	h, err := c.Stream("test-shape", 5, data.Classification)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Stream("test-shape", 5, data.Classification)
	if err != nil || again != h {
		t.Fatalf("re-ensure = %v, %v — want the same handle", again, err)
	}
	if _, err := c.Stream("test-shape", 6, data.Classification); err == nil {
		t.Fatal("cols mismatch accepted")
	}
	if _, err := c.Stream("test-shape", 5, data.Regression); err == nil {
		t.Fatal("task mismatch accepted")
	}
	if got, err := c.Handle("test-shape"); err != nil || got != h {
		t.Fatalf("Handle(stream) = %v, %v — want the stream's handle", got, err)
	}
	if !slices.Contains(c.Datasets(), "test-shape") || !slices.Contains(c.Datasets(), "reuters") {
		t.Fatalf("Datasets() = %v, want the stream and the generated names", c.Datasets())
	}
}

// TestCatalogSharesGraphsAndNNDatasets: one catalog builds each factor
// graph and image dataset once and hands every job the same instance.
func TestCatalogSharesGraphsAndNNDatasets(t *testing.T) {
	c := NewCatalog()
	g, err := c.Graph("cycle5")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.Graph("cycle5"); err != nil || again != g {
		t.Fatalf("graph not shared: %p vs %p (%v)", again, g, err)
	}
	if _, err := c.Graph("no-such-graph"); err == nil {
		t.Fatal("unknown graph accepted")
	}
	ds, sizes, err := c.NNDataset("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Images[0]) != sizes[0] {
		t.Fatalf("input dim %d != architecture %v", len(ds.Images[0]), sizes)
	}
	if again, _, err := c.NNDataset("mnist-small"); err != nil || again != ds {
		t.Fatalf("nn dataset not shared: %p vs %p (%v)", again, ds, err)
	}
	if _, _, err := c.NNDataset("no-such-dataset"); err == nil {
		t.Fatal("unknown nn dataset accepted")
	}
}

// TestServersKeepDisjointStreams: two servers in one process each own
// their stream namespace. A stream appended on one is unknown to the
// other: a first append there without cols is a 404, and the other's
// /v1/stats does not list it.
func TestServersKeepDisjointStreams(t *testing.T) {
	_, tsA := newTestServer(t, Options{})
	_, tsB := newTestServer(t, Options{})
	rows := []appendRowJSON{{Indices: []int32{0, 2}, Values: []float64{1, -1}, Label: 1}}

	urlA := tsA.URL + "/v1/datasets/s/append"
	if code := doJSON(t, tsA.Client(), http.MethodPost, urlA, appendRequest{Rows: rows, Cols: 4}, nil); code != http.StatusOK {
		t.Fatalf("append on A = %d, want 200", code)
	}
	var statsA statsResponse
	if code := doJSON(t, tsA.Client(), http.MethodGet, tsA.URL+"/v1/stats", nil, &statsA); code != http.StatusOK {
		t.Fatalf("stats on A = %d", code)
	}
	if !slices.Contains(statsA.Datasets, "s") {
		t.Fatalf("A's datasets %v miss its stream", statsA.Datasets)
	}

	urlB := tsB.URL + "/v1/datasets/s/append"
	if code := doJSON(t, tsB.Client(), http.MethodPost, urlB, appendRequest{Rows: rows}, nil); code != http.StatusNotFound {
		t.Fatalf("first append on B without cols = %d, want 404", code)
	}
	var statsB statsResponse
	if code := doJSON(t, tsB.Client(), http.MethodGet, tsB.URL+"/v1/stats", nil, &statsB); code != http.StatusOK {
		t.Fatalf("stats on B = %d", code)
	}
	if slices.Contains(statsB.Datasets, "s") {
		t.Fatalf("B's datasets %v list A's stream", statsB.Datasets)
	}
}

// TestHTTPAppendToGeneratedNameBuildsNothing: an append to a generated
// dataset's name answers 409 with or without cols, and the catalog
// holds no built entry for the name afterwards: refusing the append
// never generates the dataset.
func TestHTTPAppendToGeneratedNameBuildsNothing(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	rows := []appendRowJSON{{Indices: []int32{0}, Values: []float64{1}, Label: 1}}
	const want = `dataset "rcv1" is a frozen registry dataset; append to a new name to create a stream`
	for _, req := range []appendRequest{{Rows: rows}, {Rows: rows, Cols: 5}} {
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/datasets/rcv1/append", req, &e); code != http.StatusConflict || e.Error != want {
			t.Fatalf("append with cols %d = %d %q, want 409 %q", req.Cols, code, e.Error, want)
		}
	}
	c := srv.Scheduler().Catalog()
	c.mu.Lock()
	_, built := c.glm["rcv1"]
	c.mu.Unlock()
	if built {
		t.Fatal("a refused append left rcv1 built in the catalog")
	}
}
