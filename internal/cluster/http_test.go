package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
