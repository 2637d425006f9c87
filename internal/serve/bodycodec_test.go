package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
)

// canonicalAppendBodies are append bodies in the shapes real clients
// send: struct-marshalled chunks with cols and task (the cluster
// client), map-marshalled chunks with sorted keys (dwload -append),
// dense rows, empty arrays and indented JSON.
func canonicalAppendBodies(t testing.TB) [][]byte {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sparse := []appendRowJSON{
		{Indices: []int32{0, 3}, Values: []float64{1.5, -2.25e-7}, Label: 1},
		{Indices: []int32{1}, Values: []float64{0.1}, Label: -1},
		{Label: 1}, // a row with no nonzeros omits both arrays
	}
	indented, err := json.MarshalIndent(appendRequest{Rows: sparse, Cols: 5}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		marshal(appendRequest{Rows: sparse, Cols: 5, Task: "classification"}),
		marshal(map[string]any{"rows": sparse, "cols": 5}),
		marshal(appendRequest{Rows: sparse[:1]}),
		marshal(appendRequest{Rows: []appendRowJSON{{Dense: []float64{0, 1, -0.5, 3e300}, Label: 2.5}}, Cols: 4, Task: "regression"}),
		indented,
		[]byte(`{"rows":[{"indices":[],"values":[],"label":-0}],"cols":1}`),
		[]byte(`{"rows":[{"dense":[],"label":1E+2}]}`),
		[]byte(`{"rows":[]}`),
		[]byte(`{}`),
		[]byte(" {\"cols\" : 7 ,\"rows\":[ {\"label\":1 ,\"values\":[ 1 ],\"indices\":[ 6 ]} ] }\r\n"),
	}
}

// fallbackAppendBodies are inputs the scanner must leave to
// encoding/json: every non-canonical form the handler still accepts or
// rejects exactly as before.
var fallbackAppendBodies = []string{
	`null`,
	`{"rows":null}`,
	`{"rows":[null]}`,
	`{"rows":[{"label":null}]}`,
	`{"rows":[{"indices":null,"values":[1]}]}`,
	`{"rows":[],"rows":[]}`,
	`{"rows":[{"label":1,"label":2}]}`,
	`{"Rows":[{"label":1}]}`,
	`{"rows":[{"Label":1}]}`,
	`{"rows":[{"label":1}],"extra":true}`,
	`{"rows":[{"label":1,"weight":2}]}`,
	`{"rows":[{"label":1}],"task":"regr\u0065ssion"}`,
	`{"\u0072ows":[{"label":1}]}`,
	`{"rows":[{"label":1}],"task":"régression"}`,
	`{"rows":[{"label":1}]} trailing`,
	`{"rows":[{"label":1}]}{}`,
	`{"rows":[{"indices":[2147483648],"values":[1]}]}`,
	`{"rows":[{"indices":[-2147483649],"values":[1]}]}`,
	`{"rows":[{"indices":[1.5],"values":[1]}]}`,
	`{"rows":[{"indices":[1e2],"values":[1]}]}`,
	`{"rows":[{"indices":[01],"values":[1]}]}`,
	`{"rows":[{"label":1e400}]}`,
	`{"rows":[{"label":.5}]}`,
	`{"rows":[{"label":+1}]}`,
	`{"rows":[{"label":"1"}]}`,
	`{"rows":[{"label":1}],"cols":9223372036854775808}`,
	`{"rows":[{"label":1}],"cols":5.0}`,
	`{"rows":[{"label":1}],"task":5}`,
	`{"rows":[{"label":1},]}`,
	`{"rows":[{"label":1}],}`,
	`{"rows":[{"label":1}]`,
	`[]`,
	``,
	"\ufeff{\"rows\":[]}",
}

func TestAppendDecodeCanonicalMatchesEncodingJSON(t *testing.T) {
	for _, body := range canonicalAppendBodies(t) {
		got, err := decodeAppend(body)
		if err != nil {
			t.Errorf("scanner refused a canonical body: %s: %v", body, err)
			continue
		}
		var want appendRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("encoding/json rejects %s: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("body %s:\nscanner %#v\nencoding/json %#v", body, got, want)
		}
	}
}

func TestAppendDecodeFallsBack(t *testing.T) {
	for _, body := range fallbackAppendBodies {
		if req, err := decodeAppend([]byte(body)); err != errNotCanonical {
			t.Errorf("scanner did not leave non-canonical body %q to encoding/json: %#v, %v", body, req, err)
		}
	}
}

// FuzzAppendDecode is the differential check on the append fast path:
// whatever the scanner accepts, encoding/json must also decode without
// error into a deeply equal value, nil-versus-empty slices included,
// and the scanner refuses only bodies holding a number literal too long
// for strconv.ParseFloat.
func FuzzAppendDecode(f *testing.F) {
	for _, body := range canonicalAppendBodies(f) {
		f.Add(body)
	}
	for _, body := range fallbackAppendBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeAppend(body)
		if err != nil {
			checkRefusal(t, body, err)
			return
		}
		var want appendRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("scanner accepted %q but encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\nscanner %#v\nencoding/json %#v", body, got, want)
		}
	})
}

// TestHTTPAppendFallbackKeepsEncodingJSON checks the handler end to
// end on bodies the scanner refuses: encoding/json still decides, with
// its own error wording.
func TestHTTPAppendFallbackKeepsEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/datasets/fallback-stream/append"
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	// Unknown keys and escaped keys are fine for encoding/json.
	if code, msg := post(`{"rows":[{"indices":[0],"values":[1],"label":1}],"cols":5,"extra":true}`); code != http.StatusOK {
		t.Fatalf("unknown key = %d %s, want 200", code, msg)
	}
	if code, msg := post(`{"\u0072ows":[{"indices":[4],"values":[1],"label":-1}]}`); code != http.StatusOK {
		t.Fatalf("escaped key = %d %s, want 200", code, msg)
	}
	for _, tc := range []struct{ body, want string }{
		{`{"rows":[`, "bad append request: unexpected EOF"},
		{`{"rows":[{"indices":[1.5],"values":[1]}]}`, "bad append request: json: cannot unmarshal number 1.5 into Go struct field"},
		{`{"rows":[{"label":"1"}]}`, "bad append request: json: cannot unmarshal string into Go struct field"},
	} {
		code, msg := post(tc.body)
		if code != http.StatusBadRequest || !strings.HasPrefix(msg, tc.want) {
			t.Errorf("body %s = %d %q, want 400 %q...", tc.body, code, msg, tc.want)
		}
	}
}

// TestHTTPAppendShapeCheck: a chunk appended to an existing stream that
// names cols or task must match the stream's shape, even when its
// indices would fit a wrong cols.
func TestHTTPAppendShapeCheck(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	client := ts.Client()
	const stream = "shape-stream"
	url := ts.URL + "/v1/datasets/" + stream + "/append"
	rows := []appendRowJSON{{Indices: []int32{0, 4}, Values: []float64{1, -1}, Label: 1}}
	if code := doJSON(t, client, http.MethodPost, url, appendRequest{Rows: rows, Cols: 5}, nil); code != http.StatusOK {
		t.Fatalf("creating append = %d, want 200", code)
	}
	for _, tc := range []struct {
		name string
		req  appendRequest
		want int
	}{
		{"match", appendRequest{Rows: rows, Cols: 5, Task: "classification"}, http.StatusOK},
		{"match cols only", appendRequest{Rows: rows, Cols: 5}, http.StatusOK},
		{"omitted", appendRequest{Rows: rows}, http.StatusOK},
		{"wrong cols", appendRequest{Rows: rows, Cols: 6}, http.StatusConflict},
		{"wrong task", appendRequest{Rows: rows, Task: "regression"}, http.StatusConflict},
		{"unknown task", appendRequest{Rows: rows, Task: "ranking"}, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := srv.Scheduler().Catalog().Handle(stream)
			if err != nil {
				t.Fatal(err)
			}
			before := h.Version()
			if code := doJSON(t, client, http.MethodPost, url, tc.req, nil); code != tc.want {
				t.Fatalf("append = %d, want %d", code, tc.want)
			}
			grew := h.Version() > before
			if grew != (tc.want == http.StatusOK) {
				t.Fatalf("version %d -> %d after a %d", before, h.Version(), tc.want)
			}
		})
	}
}

// canonicalPredictBodies are predict bodies in the shapes real clients
// send: struct-marshalled requests with omitempty example fields,
// map-marshalled ones with sorted keys, a client struct that always
// writes both sparse arrays, dense examples, indented JSON, the int32
// index bounds, and "[]" beside absent keys.
func canonicalPredictBodies(t testing.TB) [][]byte {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sparse := []exampleJSON{
		{Indices: []int32{0, 3}, Values: []float64{1.5, -2.25e-7}},
		{Indices: []int32{1}, Values: []float64{0.1}},
		{}, // an example with no nonzeros omits both arrays
	}
	type clientExample struct {
		Indices []int32   `json:"indices"`
		Values  []float64 `json:"values"`
	}
	indented, err := json.MarshalIndent(predictRequest{Model: "job-2", Examples: sparse}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		marshal(predictRequest{Model: "job-1", Examples: sparse}),
		marshal(map[string]any{"model": "job-1", "examples": sparse}),
		marshal(struct {
			Model    string          `json:"model"`
			Examples []clientExample `json:"examples"`
		}{"job-7", []clientExample{{[]int32{2, 9, 3999}, []float64{1, 0.5, -3e300}}, {[]int32{}, []float64{}}}}),
		marshal(predictRequest{Model: "m", Examples: []exampleJSON{{Dense: []float64{0, 1, -0.5, 3e300}}}}),
		indented,
		[]byte(`{"model":"m","examples":[{"indices":[2147483647,-2147483648,0,-0],"values":[1,2,3,4]}]}`),
		[]byte(`{"model":"m","examples":[{"indices":[],"values":[]},{"dense":[]},{"values":[1E+2]}]}`),
		[]byte(`{"model":"m","examples":[{"indices":[1],"values":[1],"dense":[1]}]}`),
		// 25-digit mantissas: past 19 digits the scanner hands the
		// literal to strconv.ParseFloat.
		[]byte(`{"model":"m","examples":[{"indices":[0,1],"values":[1.234567890123456789012345,-0.1000000000000000000000001e-3]}]}`),
		[]byte(`{"model":"","examples":[]}`),
		[]byte(`{"model":"a<b&c>d~"}`),
		[]byte(`{}`),
		[]byte(" {\"examples\" : [ {\"values\":[ 1 ],\"indices\":[ 6 ]} ] ,\"model\":\"job-3\" }\r\n"),
	}
}

// fallbackPredictBodies are inputs the scanner must leave to
// encoding/json: every non-canonical form the handler still accepts or
// rejects exactly as before.
var fallbackPredictBodies = []string{
	`null`,
	`{"examples":null}`,
	`{"examples":[null]}`,
	`{"model":null}`,
	`{"examples":[{"indices":null,"values":[1]}]}`,
	`{"model":"a","model":"b"}`,
	`{"examples":[{"indices":[1],"indices":[2]}]}`,
	`{"Model":"a"}`,
	`{"examples":[{"Values":[1]}]}`,
	`{"model":"a","examples":[],"extra":1}`,
	`{"examples":[{"values":[1],"label":1}]}`,
	`{"model":"j\u006fb-1"}`,
	`{"\u006dodel":"a"}`,
	`{"model":"jób"}`,
	"{\"model\":\"a\tb\"}",
	`{"model":"a"} trailing`,
	`{"model":"a"}{}`,
	`{"examples":[{"indices":[2147483648],"values":[1]}]}`,
	`{"examples":[{"indices":[-2147483649],"values":[1]}]}`,
	`{"examples":[{"indices":[99999999999999999999],"values":[1]}]}`,
	`{"examples":[{"indices":[01],"values":[1]}]}`,
	`{"examples":[{"indices":[-01],"values":[1]}]}`,
	`{"examples":[{"indices":[1e2],"values":[1]}]}`,
	`{"examples":[{"indices":[1.5],"values":[1]}]}`,
	`{"examples":[{"indices":[1.0],"values":[1]}]}`,
	`{"examples":[{"indices":[-],"values":[1]}]}`,
	`{"examples":[{"values":[1e400]}]}`,
	`{"examples":[{"values":[.5]}]}`,
	`{"examples":[{"values":[+1]}]}`,
	`{"examples":[{"values":["1"]}]}`,
	`{"model":5}`,
	`{"examples":{}}`,
	`{"examples":[{"values":[1],}]}`,
	`{"examples":[{"values":[1]},]}`,
	`{"model":"a",}`,
	`{"examples":[`,
	`[]`,
	``,
	"\ufeff{\"model\":\"a\"}",
}

func TestPredictDecodeCanonicalMatchesEncodingJSON(t *testing.T) {
	for _, body := range canonicalPredictBodies(t) {
		got, err := decodePredict(body)
		if err != nil {
			t.Errorf("scanner refused a canonical body: %s: %v", body, err)
			continue
		}
		var want predictRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("encoding/json rejects %s: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("body %s:\nscanner %#v\nencoding/json %#v", body, got, want)
		}
	}
}

func TestPredictDecodeFallsBack(t *testing.T) {
	for _, body := range fallbackPredictBodies {
		if req, err := decodePredict([]byte(body)); err != errNotCanonical {
			t.Errorf("scanner did not leave non-canonical body %q to encoding/json: %#v, %v", body, req, err)
		}
	}
}

// FuzzPredictDecode is the differential check on the predict fast
// path, under FuzzAppendDecode's contract.
func FuzzPredictDecode(f *testing.F) {
	for _, body := range canonicalPredictBodies(f) {
		f.Add(body)
	}
	for _, body := range fallbackPredictBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodePredict(body)
		if err != nil {
			checkRefusal(t, body, err)
			return
		}
		var want predictRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("scanner accepted %q but encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\nscanner %#v\nencoding/json %#v", body, got, want)
		}
	})
}

// TestPredictDecodeArenaGrowth decodes a body with far more numbers
// than the first arena holds, so arrays move to fresh arenas mid-array
// and between arrays; every array must still equal encoding/json's and
// be capacity-capped, so that appending to one cannot overwrite the
// next.
func TestPredictDecodeArenaGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	req := predictRequest{Model: "m"}
	for i := 0; i < 300; i++ {
		n := rng.Intn(60)
		ex := exampleJSON{Indices: make([]int32, n), Values: make([]float64, n)}
		for j := range ex.Indices {
			ex.Indices[j], ex.Values[j] = rng.Int31(), rng.NormFloat64()
		}
		if i%7 == 0 {
			ex = exampleJSON{Dense: ex.Values}
		}
		req.Examples = append(req.Examples, ex)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, derr := decodePredict(body)
	var want predictRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if derr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner (%v) and encoding/json disagree on a %d-byte body", derr, len(body))
	}
	for i, ex := range got.Examples {
		if cap(ex.Indices) != len(ex.Indices) || cap(ex.Values) != len(ex.Values) || cap(ex.Dense) != len(ex.Dense) {
			t.Fatalf("example %d: arrays are not capacity-capped", i)
		}
	}
}

// TestDecodeGarbageAllocatesLittle: a large body that is malformed
// before its first number costs the scanner at most the request's own
// examples or rows slice, never an arena, however many separators it
// holds.
func TestDecodeGarbageAllocatesLittle(t *testing.T) {
	commas := bytes.Repeat([]byte{','}, 1<<20)
	for _, tc := range []struct {
		body []byte
		max  float64
	}{
		{commas, 0},
		{append([]byte("[[["), bytes.Repeat([]byte("[,"), 1<<19)...), 0},
		{append([]byte(`{"model":"m","examples":[{"indices":[`), commas...), 1},
		{append([]byte(`{"rows":[{"values":[`), commas...), 1},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := decodePredict(tc.body); err == nil {
				t.Fatal("scanner claimed garbage")
			}
			if _, err := decodeAppend(tc.body); err == nil {
				t.Fatal("scanner claimed garbage")
			}
		})
		if allocs > tc.max {
			t.Errorf("%.40q...: %v allocations, want at most %v", tc.body, allocs, tc.max)
		}
	}
}

// TestReadBodyCapsDeclaredLength: the body buffer is presized from
// Content-Length only up to maxPooledBuf, and the bytes read are the
// body whatever the declared length.
func TestReadBodyCapsDeclaredLength(t *testing.T) {
	var buf bytes.Buffer
	if err := readBody(&buf, strings.NewReader(""), 64<<20); err != nil {
		t.Fatal(err)
	}
	if c := buf.Cap(); c > 2*maxPooledBuf {
		t.Fatalf("a 64 MiB declared length presized %d bytes, want at most about %d", c, maxPooledBuf)
	}
	body := strings.Repeat("0123456789", 1000)
	for _, declared := range []int64{-1, 0, 10, int64(len(body)), 64 << 20} {
		buf.Reset()
		if err := readBody(&buf, strings.NewReader(body), declared); err != nil {
			t.Fatal(err)
		}
		if buf.String() != body {
			t.Fatalf("declared %d: read %d bytes, want the %d-byte body", declared, buf.Len(), len(body))
		}
	}
}

// TestHTTPPredictCodec drives /v1/predict end to end: canonical bodies
// get the reply json.Encoder would write, byte for byte, and bodies the
// scanner refuses keep encoding/json's status and error text.
func TestHTTPPredictCodec(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	spec, _ := model.ByName("ls")
	x := []float64{0.5, -1.25, 3e-7, 2}
	if err := srv.Scheduler().Models().Put("m", spec, core.Snapshot{Workload: core.WorkloadGLM, Spec: "ls", X: x}); err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	for _, body := range []string{
		`{"model":"m","examples":[{"indices":[0,3],"values":[1,0.5]},{"dense":[1,1,1,1]},{"indices":[2],"values":[1]}]}`,
		`{"examples":[{"values":[],"indices":[]}],"model":"m"}`,
		// Not canonical, still served by encoding/json.
		`{"model":"m","examples":[{"indices":[1],"values":[2]}],"extra":true}`,
		`{"model":"m","examples":[{"indices":[1],"values":[2]}]} trailing`,
	} {
		code, raw := post(body)
		var req predictRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatal(err)
		}
		examples := make([]model.Example, len(req.Examples))
		for i, ex := range req.Examples {
			examples[i] = model.Example{Idx: ex.Indices, Vals: ex.Values}
			if ex.Dense != nil {
				examples[i] = model.DenseExample(ex.Dense)
			}
		}
		preds, err := model.PredictBatch(spec, x, examples)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(predictResponse{Model: "m", Predictions: preds, Count: len(preds)})
		if code != http.StatusOK || !bytes.Equal(raw, want.Bytes()) {
			t.Errorf("body %s = %d %q, want 200 %q", body, code, raw, want.Bytes())
		}
	}
	for _, tc := range []struct {
		body string
		code int
		want string
	}{
		{`{"model":"m","examples":[`, http.StatusBadRequest, "bad predict request: unexpected EOF"},
		{`{"model":"m","examples":[{"indices":[1.5],"values":[1]}]}`, http.StatusBadRequest,
			"bad predict request: json: cannot unmarshal number 1.5 into Go struct field"},
		{`{"model":"m","examples":[{"indices":[2147483648],"values":[1]}]}`, http.StatusBadRequest,
			"bad predict request: json: cannot unmarshal number 2147483648 into Go struct field"},
		{`{"model":"m","examples":null}`, http.StatusBadRequest, "predict request has no examples"},
		{`{"model":"m","examples":[]}`, http.StatusBadRequest, "predict request has no examples"},
		{`{"model":"m","examples":[{"indices":[1],"values":[1],"dense":[1]}]}`, http.StatusBadRequest,
			"example 0 mixes dense and sparse encodings"},
		{`{"model":"nope","examples":[{"dense":[1]}]}`, http.StatusNotFound, `serve: unknown model`},
	} {
		code, raw := post(tc.body)
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(raw, &e)
		if code != tc.code || !strings.HasPrefix(e.Error, tc.want) {
			t.Errorf("body %s = %d %q, want %d %q...", tc.body, code, e.Error, tc.code, tc.want)
		}
	}
}

// TestHTTPPredictNonFiniteIs500: a model with a NaN weight scores NaN,
// which encoding/json cannot write. The reply is 500 with a JSON error,
// counted as an HTTP error, never 200 over an empty body, whether or
// not the model id needs escaping.
func TestHTTPPredictNonFiniteIs500(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	spec, _ := model.ByName("ls")
	for _, id := range []string{"nan-model", "nan<model"} {
		snap := core.Snapshot{Workload: core.WorkloadGLM, Spec: "ls", X: []float64{math.NaN(), 1}}
		if err := srv.Scheduler().Models().Put(id, spec, snap); err != nil {
			t.Fatal(err)
		}
		before := srv.counters.Snapshot()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"model":"`+id+`","examples":[{"indices":[0],"values":[1]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(e.Error, "NaN") {
			t.Errorf("model %q: status %d, error %q (decode err %v), want 500 naming the NaN", id, resp.StatusCode, e.Error, err)
		}
		after := srv.counters.Snapshot()
		if after.Counts[metrics.HTTPErrors] != before.Counts[metrics.HTTPErrors]+1 || after.Counts[metrics.PredictRequests] != before.Counts[metrics.PredictRequests] {
			t.Errorf("model %q: http_errors %d -> %d, predict_requests %d -> %d; want one error, no served predict",
				id, before.Counts[metrics.HTTPErrors], after.Counts[metrics.HTTPErrors], before.Counts[metrics.PredictRequests], after.Counts[metrics.PredictRequests])
		}
	}
}

// TestHTTPPredictReadsWholeBody: predict reads the whole capped body
// before it decodes any of it, as append does. A body past the cap
// answers 413 even when its first JSON value is valid (under the cap,
// encoding/json's fallback serves it and ignores the rest) or malformed
// within the cap.
func TestHTTPPredictReadsWholeBody(t *testing.T) {
	srv, ts := newTestServer(t, Options{MaxBodyBytes: 512})
	spec, _ := model.ByName("ls")
	if err := srv.Scheduler().Models().Put("m", spec, core.Snapshot{Workload: core.WorkloadGLM, Spec: "ls", X: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	valid := `{"model":"m","examples":[{"indices":[1],"values":[2]}]}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{valid + " trailing", http.StatusOK},
		{valid + strings.Repeat(" ", 1024), http.StatusRequestEntityTooLarge},
		{`{"model":` + strings.Repeat("x", 1024), http.StatusRequestEntityTooLarge},
		{`{"model":` + strings.Repeat("x", 100), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%d-byte body %.20q...: status %d, want %d", len(tc.body), tc.body, resp.StatusCode, tc.code)
		}
	}
}

// floatEdgeLiterals are scanner.float inputs at the edges of the
// grammar and of each rounding path: signed zeros, the subnormal and
// normal bounds, the largest finite value and the first past it,
// halfway cases, mantissas of 19, 20, 54 and 800 digits with and
// without nonzero digits past the 19th, leading fraction zeros (which
// count toward the 19), the largest exact powers of ten, out of range
// and overlong exponents, and malformed literals.
func floatEdgeLiterals() []string {
	zeros := func(n int) string { return strings.Repeat("0", n) }
	return []string{
		"0", "-0", "-0.0", "0.0", "0e400", "-0e-400",
		"5e-324", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"9007199254740992", "9007199254740993", "-9007199254740995",
		"1234567890123456789", "12345678901234567890", "99999999999999999990", "9.9999999999999999990", "1234567890123456789.5",
		// The halfway point between 1 and the next float64, and
		// either side of it in the 54th digit.
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"100000000000000011102230246251565404236316680908203126e-53",
		"1" + zeros(799), "1" + zeros(799) + "e-790", "1" + zeros(798) + "1e-790",
		"0." + zeros(799) + "1", "0." + zeros(30) + "1e40", "0.000000000012345678901234567", "0.0000000000123456789", "0.1" + zeros(798) + "1",
		"1e-400", "1e400", "-1e400", "1e99999999999", "1e-99999999999", "1e00000000000000000022",
		"1e-22", "1e22", "1e23", "1e-23", "8.41e21", "123456789012345e22",
		"1E5", "1e+5", "1e-5", "1.5E-5", "1.5.3", "01", "-01", "1]", " \t\r\n0.5,",
		"", "-", "+1", ".5", "1.", "1.e5", "1e", "1e+", "-.5", "0x10", "1_000", "Infinity", "NaN", "-x",
	}
}

// checkScanFloat runs scanner.float on b against two references:
// encoding/json's decoder for where the JSON number grammar ends, and
// strconv.ParseFloat of exactly those bytes for the value. A literal
// strconv rejects as out of range must not be claimed.
func checkScanFloat(t *testing.T, b []byte) {
	t.Helper()
	s := scanner{b: b}
	got, ok := s.float()
	if s.err != nil {
		checkRefusal(t, b, s.err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	num, isNum := v.(json.Number)
	if err != nil || !isNum {
		if ok {
			t.Fatalf("%.60q: claimed %v, but it does not start with a JSON number", b, got)
		}
		return
	}
	want, perr := strconv.ParseFloat(string(num), 64)
	switch {
	case perr != nil && ok:
		t.Fatalf("%.60q: claimed %v, but strconv.ParseFloat says %v", num, got, perr)
	case perr != nil:
		// Out of range, and rightly not claimed.
	case !ok:
		t.Fatalf("%.60q: refused a number strconv.ParseFloat reads as %v", num, want)
	case s.i != int(dec.InputOffset()):
		t.Fatalf("%.60q: cursor at %d, the number ends at %d", b, s.i, dec.InputOffset())
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%.60q: scanned %v (%#x), strconv.ParseFloat %v (%#x)", num, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkRefusal checks a scanner's error: errNotCanonical, or
// errLongNumber for input that holds a number literal with more than
// 800 significant digits.
func checkRefusal(t *testing.T, b []byte, err error) {
	t.Helper()
	switch {
	case err == errNotCanonical:
	case err != errLongNumber:
		t.Fatalf("%.60q: scanner error %v", b, err)
	case !hasLongNumber(b):
		t.Fatalf("%.60q: refused, but no literal in it has more than 800 significant digits", b)
	}
}

// mantissaRE matches the digits of a number literal up to its exponent.
var mantissaRE = regexp.MustCompile(`[0-9]+(\.[0-9]*)?`)

// hasLongNumber reports whether b holds a digit run with more than 800
// digits after its leading zeros, a decimal point not counted.
func hasLongNumber(b []byte) bool {
	for _, m := range mantissaRE.FindAll(b, -1) {
		if len(strings.TrimLeft(strings.Replace(string(m), ".", "", 1), "0")) > 800 {
			return true
		}
	}
	return false
}

// TestLongNumberRefused: a literal whose 10001-digit integer part
// outruns strconv.ParseFloat's 800-digit buffer, which encoding/json
// reads as 0, is refused by the scanner, both body decoders and both
// routes (400); at 800 significant digits the value is read exactly.
func TestLongNumberRefused(t *testing.T) {
	long := "1" + strings.Repeat("0", 10000) + "e-10000"
	s := scanner{b: []byte(long)}
	if f, ok := s.float(); ok || s.err != errLongNumber {
		t.Fatalf("float() = %v, %v, err %v; want a refusal", f, ok, s.err)
	}
	predict := `{"model":"m","examples":[{"dense":[` + long + `]}]}`
	if _, err := decodePredict([]byte(predict)); err != errLongNumber {
		t.Errorf("decodePredict: %v, want errLongNumber", err)
	}
	appendBody := `{"rows":[{"dense":[1],"label":` + long + `}]}`
	if _, err := decodeAppend([]byte(appendBody)); err != errLongNumber {
		t.Errorf("decodeAppend: %v, want errLongNumber", err)
	}
	edge := "1" + strings.Repeat("0", 799) + "e-799"
	s = scanner{b: []byte(edge)}
	if f, ok := s.float(); !ok || f != 1 {
		t.Errorf("800 significant digits: float() = %v, %v, want 1", f, ok)
	}

	_, ts := newTestServer(t, Options{})
	for _, c := range []struct{ path, body string }{
		{"/v1/predict", predict},
		{"/v1/datasets/long-stream/append", appendBody},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "significant digits") {
			t.Errorf("POST %s: %d %q, want 400 naming the digit limit", c.path, resp.StatusCode, e.Error)
		}
	}
}

func TestScanFloatEdges(t *testing.T) {
	for _, lit := range floatEdgeLiterals() {
		checkScanFloat(t, []byte(lit))
	}
	// Literals too long for fuzz seeds. strconv stops counting an
	// exponent once it reaches 10000; a literal long enough to bring
	// the true exponent back into range shows that the scanner counts
	// the same way, and literals up to 800 significant digits are read
	// as strconv reads them.
	for _, lit := range []string{
		"1" + strings.Repeat("0", 10000) + "e-10000",
		"1" + strings.Repeat("0", 10000) + "e-00000000000000010005",
		"1234567890123456789" + strings.Repeat("0", 99982) + "e-100005",
		"1" + strings.Repeat("0", 799) + "e-799",
		"0." + strings.Repeat("0", 10000) + "1" + strings.Repeat("7", 799) + "e10001",
		"3" + strings.Repeat("0", 900) + "e-901",
	} {
		checkScanFloat(t, []byte(lit))
	}
	// Literals on every power-of-ten table row, with one-digit,
	// 17-digit and 19-digit mantissas and one just past 2^53.
	for e := pow10MinExp10; e <= pow10MaxExp10; e++ {
		for _, man := range []string{"5", "12345678901234567", "-9999999999999999999", "9007199254740993"} {
			checkScanFloat(t, []byte(fmt.Sprintf("%se%d", man, e)))
		}
	}
}

// TestPowersOfTenTable pins rows of the lazily built table to the
// values strconv's own table lists for them.
func TestPowersOfTenTable(t *testing.T) {
	pow10Once.Do(buildPowersOfTen)
	for _, tc := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen[tc.e-pow10MinExp10]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d: {%#x, %#x}, want {%#x, %#x}", tc.e, got[0], got[1], tc.lo, tc.hi)
		}
	}
}

// FuzzScanFloat is the differential check on the float path: a
// claimed literal ends where the JSON grammar ends and is bitwise
// strconv.ParseFloat's value, and only a literal with more than 800
// significant digits is refused.
func FuzzScanFloat(f *testing.F) {
	for _, lit := range floatEdgeLiterals() {
		f.Add([]byte(lit))
	}
	f.Fuzz(checkScanFloat)
}

// intEdgeLiterals are scanner.int inputs at the edges of its accept
// set: signed zeros, leading zeros, the int32 and int64 bounds and one
// either side, 19- and 20-digit literals, runs of 7, 8 and 9 digits,
// a digit run followed by a fraction or an exponent, and malformed
// literals.
var intEdgeLiterals = []string{
	"0", "-0", "00", "-00", "007", "-007", "1", "-1", "7", "1234567", "12345678", "123456789",
	"2147483646", "2147483647", "2147483648", "-2147483647", "-2147483648", "-2147483649",
	"9223372036854775806", "9223372036854775807", "9223372036854775808",
	"-9223372036854775807", "-9223372036854775808", "-9223372036854775809",
	"1234567890123456789", "9999999999999999999", "-9999999999999999999",
	"12345678901234567890", "-12345678901234567890", "99999999999999999999",
	"1.", "1.5", "1.0", "12345678.9", "1e5", "1E5", "1e", "0.5", "-0e0", "123456789e1",
	"1]", "1,2", " \t\r\n-7]", "", "-", "+1", "-+1", "0x10", "1_000", "x", "\u0661",
}

// checkScanInt runs scanner.int(bits) on b against two references:
// encoding/json's decoder for where the JSON number ends, and
// strconv.ParseInt of exactly those bytes for the accept set and the
// value. A number JSON ends just before a digit (a 0 followed by more
// digits) must not be claimed: taken as one literal the digit run has
// a leading zero, which ParseInt's accept set for JSON forbids.
func checkScanInt(t *testing.T, b []byte, bits int) {
	t.Helper()
	s := scanner{b: b}
	got, ok := s.int(bits)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	num, isNum := v.(json.Number)
	end := int(dec.InputOffset())
	if err != nil || !isNum || (end < len(b) && b[end]-'0' < 10) {
		if ok {
			t.Fatalf("%.60q: int(%d) claimed %d, but it does not start with one JSON number", b, bits, got)
		}
		return
	}
	want, perr := strconv.ParseInt(string(num), 10, bits)
	switch {
	case perr != nil && ok:
		t.Fatalf("%.60q: int(%d) claimed %d, but strconv.ParseInt says %v", num, bits, got, perr)
	case perr != nil:
		// A fraction, an exponent or out of range, and rightly not
		// claimed.
	case !ok:
		t.Fatalf("%.60q: int(%d) refused a literal strconv.ParseInt reads as %d", num, bits, want)
	case s.i != end:
		t.Fatalf("%.60q: int(%d) cursor at %d, the number ends at %d", b, bits, s.i, end)
	case got != want:
		t.Fatalf("%.60q: int(%d) scanned %d, strconv.ParseInt %d", num, bits, got, want)
	}
}

// FuzzScanInt is the differential check on the integer path, at both
// widths the scanner reads: a claimed literal is one strconv.ParseInt
// accepts, with its value, and ends where the JSON grammar ends. A
// plain go test runs the edge literals as its seeds.
func FuzzScanInt(f *testing.F) {
	for _, lit := range intEdgeLiterals {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkScanInt(t, b, 32)
		checkScanInt(t, b, 64)
	})
}

// TestScanNumberWindows places digit runs of 1–20 digits, alone or
// after "-", "0." or "-1.", so that each run ends 0–8 bytes before the
// end of the slice. The byte after the run is one either side of
// '0'..'9' ('/' and ':'), a separator, the start of a fraction or an
// exponent, or a non-ASCII byte; digits fill the rest of the slice and
// its capacity past the length, so a load that read past the slice, or
// a neighbour taken for a digit, would change the result. Every case
// goes through checkScanFloat and checkScanInt.
func TestScanNumberWindows(t *testing.T) {
	// An empty tail ends the slice with the run; every other tail is
	// one neighbour byte and 0–7 more bytes.
	tails := []string{""}
	for _, next := range []byte("/:,].e\x80\xff") {
		for after := 1; after <= 8; after++ {
			tails = append(tails, string([]byte{next})+strings.Repeat("7", after-1))
		}
	}
	for _, run := range []string{"98765432109876543210", "10000000000000000009"} {
		for n := 1; n <= len(run); n++ {
			for _, prefix := range []string{"", "-", "0.", "-1."} {
				for _, tail := range tails {
					b := []byte(prefix + run[:n] + tail)
					b = append(b, "12345678"...)[:len(b)]
					checkScanFloat(t, b)
					checkScanInt(t, b, 32)
					checkScanInt(t, b, 64)
				}
			}
		}
	}
}

// benchPredictBody and benchAppendBody build request bodies as the
// serve workloads of perfbench do: data.GenerateSparse rows over 4000
// columns (values 0.5+U[0,1)), json.Marshal'd. The predict body holds
// 128 examples of ~40 nonzeros, the append body 1000 rows of ~12.
func benchPredictBody(tb testing.TB) []byte {
	ds := data.GenerateSparse(data.SparseConfig{Name: "bench-predict", Rows: 128, Cols: 4000, NNZPerRow: 40, Seed: 2})
	req := predictRequest{Model: "job-1"}
	for i := 0; i < ds.Rows(); i++ {
		idx, vals := ds.A.Row(i)
		req.Examples = append(req.Examples, exampleJSON{Indices: idx, Values: vals})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func benchAppendBody(tb testing.TB) []byte {
	ds := data.GenerateSparse(data.SparseConfig{Name: "bench-append", Rows: 1000, Cols: 4000, NNZPerRow: 12, Noise: 0.05, Seed: 1})
	req := appendRequest{Cols: ds.Cols()}
	for i := 0; i < ds.Rows(); i++ {
		idx, vals := ds.A.Row(i)
		req.Rows = append(req.Rows, appendRowJSON{Indices: idx, Values: vals, Label: ds.Labels[i]})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodePredictAllocs pins the scanner's allocations on a
// bench-shaped body: the float path allocates nothing of its own.
func TestDecodePredictAllocs(t *testing.T) {
	body := benchPredictBody(t)
	got, derr := decodePredict(body)
	var want predictRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if derr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner (%v) and encoding/json disagree on the bench body", derr)
	}
	const maxAllocs = 13
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePredict(body); err != nil {
			t.Fatal("scanner refused the bench body")
		}
	})
	if allocs > maxAllocs {
		t.Errorf("decodePredict: %v allocations on a %d-byte body, want at most %d", allocs, len(body), maxAllocs)
	}
}

var decodeSink int

func BenchmarkDecodePredict(b *testing.B) {
	body := benchPredictBody(b)
	req, _ := decodePredict(body)
	nums := 0
	for _, ex := range req.Examples {
		nums += len(ex.Indices) + len(ex.Values) + len(ex.Dense)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := decodePredict(body)
		if err != nil {
			b.Fatal("scanner refused the bench body")
		}
		decodeSink += len(req.Examples)
	}
	reportPerNumber(b, nums)
}

func BenchmarkDecodeAppend(b *testing.B) {
	body := benchAppendBody(b)
	req, _ := decodeAppend(body)
	nums := 1 // cols
	for _, r := range req.Rows {
		nums += len(r.Indices) + len(r.Values) + len(r.Dense) + 1 // label
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := decodeAppend(body)
		if err != nil {
			b.Fatal("scanner refused the bench body")
		}
		decodeSink += len(req.Rows)
	}
	reportPerNumber(b, nums)
}

// reportPerNumber reports the decode time per number literal in a body
// of nums numbers, as ns/num.
func reportPerNumber(b *testing.B, nums int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nums), "ns/num")
}
