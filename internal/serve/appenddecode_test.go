package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dimmwitted/internal/data"
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
		got, ok := decodeAppend(body)
		if !ok {
			t.Errorf("scanner refused a canonical body: %s", body)
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
		if req, ok := decodeAppend([]byte(body)); ok {
			t.Errorf("scanner claimed non-canonical body %q as %#v", body, req)
		}
	}
}

// FuzzAppendDecode is the differential check on the append fast path:
// whatever the scanner accepts, encoding/json must also decode without
// error into a deeply equal value, nil-versus-empty slices included.
func FuzzAppendDecode(f *testing.F) {
	for _, body := range canonicalAppendBodies(f) {
		f.Add(body)
	}
	for _, body := range fallbackAppendBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeAppend(body)
		if !ok {
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
	_, ts := newTestServer(t, Options{})
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
			h, err := data.HandleByName(stream)
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
