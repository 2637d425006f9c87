package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestErrorRateGate(t *testing.T) {
	cases := []struct {
		name     string
		rep      report
		max      float64
		rate     float64
		exceeded bool
	}{
		{"gate off ignores errors", report{Issued: 10, Errors: 10}, 1, 0, false},
		{"clean run passes", report{Issued: 100}, 0.01, 0, false},
		{"rate at threshold passes", report{Issued: 100, Errors: 1}, 0.01, 0.01, false},
		{"rate above threshold fails", report{Issued: 100, Errors: 2}, 0.01, 0.02, true},
		// drive counts a 429 like any other non-200 answer, so
		// rejections reach the gate through Errors.
		{"rejected count toward the rate", report{Issued: 100, Errors: 5}, 0.04, 0.05, true},
		{"errors and rejections combine", report{Issued: 200, Errors: 10}, 0.04, 0.05, true},
		{"zero issued with active gate fails", report{}, 0.5, 1, true},
		{"zero tolerance fails on any error", report{Issued: 1000, Errors: 1}, 0, 0.001, true},
		{"zero tolerance passes a clean run", report{Issued: 1000}, 0, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rate, exceeded := errorRate(c.rep, c.max)
			if math.Abs(rate-c.rate) > 1e-12 || exceeded != c.exceeded {
				t.Fatalf("errorRate(%+v, %v) = (%v, %v), want (%v, %v)",
					c.rep, c.max, rate, exceeded, c.rate, c.exceeded)
			}
		})
	}
}

// TestDrive429IsAnError: a 429 is not a separate bucket any more; it
// counts as an error like every other non-200 answer.
func TestDrive429IsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	rep := drive(ts.Client(), ts.URL, modelInfo{ID: "m"}, [][]byte{[]byte(`{}`)}, 200, 100*time.Millisecond, 2)
	if rep.Issued == 0 || rep.OK != 0 || rep.Errors != rep.Issued {
		t.Fatalf("report %+v, want every issued request counted as an error", rep)
	}
}
