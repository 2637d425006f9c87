// Command dwload is a load generator for a running dwserve: it drives
// train-then-predict traffic at a target request rate and prints a
// client-side throughput/latency report next to the server's own
// /v1/stats accounting.
//
//	dwload -model job-1 -rps 500 -duration 10s        # drive an existing model
//	dwload -train svm -dataset reuters -epochs 20     # train first, then drive
//	dwload -rps 2000 -concurrency 128 -examples 8     # bigger batches, more workers
//	dwload -train svm -dataset reuters -json load.json
//	dwload -model job-1 -max-error-rate 0.01          # CI gate: exit 1 past 1%
//	dwload -append clicks -cols 1024 -chunks 20       # stream ingestion traffic
//
// dwload paces an open(ish) loop: a pacer emits request tokens at the
// target rate into a bounded hand-off, -concurrency workers consume
// them, and tokens nobody picks up in time are counted as "unsent" —
// so when the client saturates, the report says so instead of
// silently measuring a slower test. Any non-200 answer counts as an
// error.
//
// GLM models get random sparse examples in the model's coordinate
// space; gibbs models get single-variable marginal lookups. NN models
// are not driven (their input dimension is not recoverable from the
// listing alone).
//
// -append switches dwload into ingestion mode: it POSTs chunks of
// random labelled sparse rows to /v1/datasets/{id}/append (creating
// the stream on the first chunk) and reports the version and row
// count the server published after each chunk — the client half of an
// online-training job reading the same stream.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// modelInfo mirrors the /v1/models listing row dwload needs.
type modelInfo struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Spec     string `json:"spec"`
	Dataset  string `json:"dataset"`
	Dim      int    `json:"dim"`
}

// exampleJSON mirrors the /v1/predict example encoding.
type exampleJSON struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

type predictRequest struct {
	Model    string        `json:"model"`
	Examples []exampleJSON `json:"examples"`
}

// latencySnapshot mirrors the /v1/stats per-route histogram summary.
type latencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// statsSubset decodes the slice of /v1/stats the report prints.
type statsSubset struct {
	Latency map[string]latencySnapshot `json:"latency"`
}

// report is the machine-readable result (-json).
type report struct {
	Addr        string  `json:"addr"`
	Model       string  `json:"model"`
	Workload    string  `json:"workload"`
	TargetRPS   float64 `json:"target_rps"`
	Seconds     float64 `json:"seconds"`
	Concurrency int     `json:"concurrency"`
	Examples    int     `json:"examples_per_request"`

	Issued int64 `json:"issued"`
	OK     int64 `json:"ok"`
	Errors int64 `json:"errors"`
	Unsent int64 `json:"unsent"`

	AchievedRPS    float64 `json:"achieved_rps"`
	PredictionsSec float64 `json:"predictions_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	MeanMs         float64 `json:"mean_ms"`

	Server *latencySnapshot `json:"server_predict_latency,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "dwserve base URL")
	modelID := flag.String("model", "", "registry model id to drive (empty: use -train)")
	train := flag.String("train", "", "train this GLM spec first (svm, lr, ...) and drive the resulting model")
	dataset := flag.String("dataset", "reuters", "dataset for -train")
	epochs := flag.Int("epochs", 10, "max_epochs for -train")
	rps := flag.Float64("rps", 200, "target request rate")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive traffic")
	concurrency := flag.Int("concurrency", 32, "client worker goroutines")
	examples := flag.Int("examples", 4, "examples per predict request")
	nnz := flag.Int("nnz", 8, "nonzeros per sparse example")
	seed := flag.Int64("seed", 1, "example-generation seed")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file")
	maxErrorRate := flag.Float64("max-error-rate", 1, "fail (exit 1) when errors/issued exceeds this fraction; 1 never fails")
	appendTo := flag.String("append", "", "ingestion mode: append random rows to this stream dataset instead of driving predictions")
	cols := flag.Int("cols", 256, "stream dimension for -append (used when the stream does not exist yet)")
	chunks := flag.Int("chunks", 10, "number of append chunks for -append")
	chunkRows := flag.Int("chunk-rows", 500, "rows per append chunk for -append")
	chunkGap := flag.Duration("chunk-gap", 0, "pause between append chunks for -append (0: back to back)")
	flag.Parse()

	client := &http.Client{Timeout: 30 * time.Second}
	if *appendTo != "" {
		if err := runAppend(client, *addr, *appendTo, *cols, *chunks, *chunkRows, *nnz, *seed, *chunkGap); err != nil {
			fmt.Fprintln(os.Stderr, "dwload:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(client, *addr, *modelID, *train, *dataset, *epochs, *rps, *duration,
		*concurrency, *examples, *nnz, *seed, *jsonOut, *maxErrorRate); err != nil {
		fmt.Fprintln(os.Stderr, "dwload:", err)
		os.Exit(1)
	}
}

// appendRowJSON mirrors the /v1/datasets/{id}/append row encoding.
type appendRowJSON struct {
	Indices []int32   `json:"indices,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Label   float64   `json:"label"`
}

// runAppend drives ingestion traffic: -chunks chunks of -chunk-rows
// random sparse rows each, labelled by a fixed hidden linear model so
// an online job training on the stream has something learnable.
func runAppend(client *http.Client, addr, stream string, cols, chunks, chunkRows, nnz int,
	seed int64, gap time.Duration) error {
	if cols <= 0 || chunks <= 0 || chunkRows <= 0 || nnz <= 0 {
		return fmt.Errorf("cols, chunks, chunk-rows and nnz must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	truth := make([]float64, cols)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	fmt.Printf("dwload: appending %d chunks x %d rows (dim %d, %d nnz/row) to %s/v1/datasets/%s/append\n",
		chunks, chunkRows, cols, nnz, addr, stream)

	var totalRows int
	start := time.Now()
	for c := 0; c < chunks; c++ {
		rows := make([]appendRowJSON, chunkRows)
		for i := range rows {
			k := nnz
			if k > cols {
				k = cols
			}
			idx := rng.Perm(cols)[:k]
			sort.Ints(idx)
			row := appendRowJSON{Indices: make([]int32, k), Values: make([]float64, k)}
			score := 0.0
			for j, v := range idx {
				row.Indices[j] = int32(v)
				row.Values[j] = rng.NormFloat64()
				score += row.Values[j] * truth[v]
			}
			if score >= 0 {
				row.Label = 1
			} else {
				row.Label = -1
			}
			rows[i] = row
		}
		req := map[string]any{"rows": rows}
		if c == 0 {
			// The first chunk's cols creates the stream, or must match
			// an existing stream's shape (the server answers 409
			// otherwise). Later chunks omit it.
			req["cols"] = cols
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(addr+"/v1/datasets/"+stream+"/append", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("append chunk %d: status %d: %s", c, resp.StatusCode, raw)
		}
		var ar struct {
			Version uint64 `json:"version"`
			Rows    int    `json:"rows"`
		}
		if err := json.Unmarshal(raw, &ar); err != nil {
			return err
		}
		totalRows = ar.Rows
		fmt.Printf("chunk %2d: server published version %d, %d rows total\n", c, ar.Version, ar.Rows)
		if gap > 0 && c < chunks-1 {
			time.Sleep(gap)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("appended %d rows in %.2fs (%.0f rows/s end to end)\n",
		chunks*chunkRows, elapsed.Seconds(), float64(chunks*chunkRows)/elapsed.Seconds())
	fmt.Printf("stream %s now serves %d rows; train on it with {\"dataset\": %q, \"online\": true}\n",
		stream, totalRows, stream)
	return nil
}

func run(client *http.Client, addr, modelID, train, dataset string, epochs int,
	rps float64, duration time.Duration, concurrency, examples, nnz int, seed int64,
	jsonOut string, maxErrorRate float64) error {
	if rps <= 0 || concurrency <= 0 || examples <= 0 {
		return fmt.Errorf("rps, concurrency and examples must be positive")
	}
	if maxErrorRate < 0 || maxErrorRate > 1 {
		return fmt.Errorf("max-error-rate must be in [0, 1], got %g", maxErrorRate)
	}
	if train != "" {
		id, err := trainModel(client, addr, train, dataset, epochs)
		if err != nil {
			return err
		}
		fmt.Printf("dwload: trained %s/%s as %s\n", train, dataset, id)
		modelID = id
	}
	if modelID == "" {
		return fmt.Errorf("need -model ID or -train SPEC")
	}
	info, err := findModel(client, addr, modelID)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	pool, err := examplePool(info, examples, nnz, rng)
	if err != nil {
		return err
	}

	fmt.Printf("dwload: target %.0f req/s for %v against %s, model %s (%s %s/%s, dim %d), %d workers, %d examples/request\n",
		rps, duration, addr, info.ID, info.Workload, info.Spec, info.Dataset, info.Dim, concurrency, examples)

	rep := drive(client, addr, info, pool, rps, duration, concurrency)
	rep.Examples = examples

	// Server-side accounting, best-effort.
	var stats statsSubset
	if err := getJSON(client, addr+"/v1/stats", &stats); err == nil {
		if sl, ok := stats.Latency["POST /v1/predict"]; ok {
			rep.Server = &sl
		}
	}

	printReport(rep)
	if jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", jsonOut)
	}
	// The report is always printed (and written) before the gate, so a
	// failing run still documents what happened.
	if rate, bad := errorRate(rep, maxErrorRate); bad {
		return fmt.Errorf("error rate %.2f%% (errors over issued) exceeds -max-error-rate %.2f%%",
			rate*100, maxErrorRate*100)
	}
	return nil
}

// errorRate computes the failed fraction of issued requests and
// reports whether it exceeds the gate. A run that issued nothing is
// itself a failure when any gate below 1 is set: an idle load test
// proves nothing.
func errorRate(rep report, max float64) (rate float64, exceeded bool) {
	if max >= 1 {
		return 0, false
	}
	if rep.Issued == 0 {
		return 1, true
	}
	rate = float64(rep.Errors) / float64(rep.Issued)
	return rate, rate > max
}

// trainModel submits a training job and polls it to completion.
func trainModel(client *http.Client, addr, spec, dataset string, epochs int) (string, error) {
	body, _ := json.Marshal(map[string]any{"model": spec, "dataset": dataset, "max_epochs": epochs})
	resp, err := client.Post(addr+"/v1/train", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("train: status %d: %s", resp.StatusCode, raw)
	}
	var tr struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		return "", err
	}
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := getJSON(client, addr+"/v1/jobs/"+tr.JobID, &st); err != nil {
			return "", err
		}
		switch st.State {
		case "done":
			return tr.JobID, nil
		case "failed", "cancelled":
			return "", fmt.Errorf("training job %s ended %s: %s", tr.JobID, st.State, st.Error)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// findModel locates the model in the /v1/models listing.
func findModel(client *http.Client, addr, id string) (modelInfo, error) {
	var listing struct {
		Models []modelInfo `json:"models"`
	}
	if err := getJSON(client, addr+"/v1/models", &listing); err != nil {
		return modelInfo{}, err
	}
	for _, m := range listing.Models {
		if m.ID == id {
			return m, nil
		}
	}
	return modelInfo{}, fmt.Errorf("model %q not in /v1/models listing", id)
}

// examplePool pre-generates a rotation of request payloads in the
// model's input encoding, so the hot loop only serialises and sends.
func examplePool(info modelInfo, perReq, nnz int, rng *rand.Rand) ([][]byte, error) {
	if info.Dim <= 0 {
		return nil, fmt.Errorf("model %s has dimension %d", info.ID, info.Dim)
	}
	const poolSize = 64
	pool := make([][]byte, poolSize)
	for p := range pool {
		exs := make([]exampleJSON, perReq)
		for i := range exs {
			switch info.Workload {
			case "gibbs":
				exs[i] = exampleJSON{Indices: []int32{int32(rng.Intn(info.Dim))}, Values: []float64{1}}
			case "glm":
				k := nnz
				if k > info.Dim {
					k = info.Dim
				}
				idx := rng.Perm(info.Dim)[:k]
				sort.Ints(idx)
				ex := exampleJSON{Indices: make([]int32, k), Values: make([]float64, k)}
				for j, v := range idx {
					ex.Indices[j] = int32(v)
					ex.Values[j] = rng.NormFloat64()
				}
				exs[i] = ex
			default:
				return nil, fmt.Errorf("dwload drives glm and gibbs models; %s is %q", info.ID, info.Workload)
			}
		}
		buf, err := json.Marshal(predictRequest{Model: info.ID, Examples: exs})
		if err != nil {
			return nil, err
		}
		pool[p] = buf
	}
	return pool, nil
}

// drive paces predict traffic and collects client-side latencies.
func drive(client *http.Client, addr string, info modelInfo, pool [][]byte,
	rps float64, duration time.Duration, concurrency int) report {
	tokens := make(chan int, concurrency)
	var issued, ok, errs, unsent, preds atomic.Int64
	durCh := make(chan []time.Duration, concurrency)

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs := make([]time.Duration, 0, 1024)
			for tok := range tokens {
				body := pool[tok%len(pool)]
				issued.Add(1)
				start := time.Now()
				resp, err := client.Post(addr+"/v1/predict", "application/json", bytes.NewReader(body))
				elapsed := time.Since(start)
				if err != nil {
					errs.Add(1)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				durs = append(durs, elapsed)
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				ok.Add(1)
				var pr struct {
					Count int64 `json:"count"`
				}
				if json.Unmarshal(raw, &pr) == nil {
					preds.Add(pr.Count)
				}
			}
			durCh <- durs
		}()
	}

	// Pacer: tokens owed are computed from the elapsed wall clock, not
	// a ticker — tickers coalesce missed ticks, which at high -rps
	// would silently issue fewer requests than the target instead of
	// counting the shortfall. A token nobody takes means the client
	// side is saturated; it is counted as unsent, never re-owed.
	interval := time.Duration(float64(time.Second) / rps)
	if interval < 50*time.Microsecond {
		interval = 50 * time.Microsecond
	}
	if interval > 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	started := time.Now()
	deadline := started.Add(duration)
	paced := int64(0) // tokens accounted for: handed off or unsent
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		owed := int64(now.Sub(started).Seconds()*rps) - paced
		for ; owed > 0; owed-- {
			select {
			case tokens <- int(paced):
			default:
				unsent.Add(1)
			}
			paced++
		}
		time.Sleep(interval)
	}
	close(tokens)
	wg.Wait()
	elapsed := time.Since(started)
	close(durCh)

	var all []time.Duration
	for d := range durCh {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	rep := report{
		Addr:        addr,
		Model:       info.ID,
		Workload:    info.Workload,
		TargetRPS:   rps,
		Seconds:     elapsed.Seconds(),
		Concurrency: concurrency,
		Issued:      issued.Load(),
		OK:          ok.Load(),
		Errors:      errs.Load(),
		Unsent:      unsent.Load(),
	}
	rep.AchievedRPS = float64(rep.OK) / elapsed.Seconds()
	rep.PredictionsSec = float64(preds.Load()) / elapsed.Seconds()
	if len(all) > 0 {
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		rep.MeanMs = sum.Seconds() * 1e3 / float64(len(all))
		rep.P50Ms = quantileMs(all, 0.50)
		rep.P95Ms = quantileMs(all, 0.95)
		rep.P99Ms = quantileMs(all, 0.99)
		rep.MaxMs = all[len(all)-1].Seconds() * 1e3
	}
	return rep
}

// quantileMs reads the q-th quantile of sorted durations.
func quantileMs(sorted []time.Duration, q float64) float64 {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Seconds() * 1e3
}

func printReport(r report) {
	fmt.Printf("requests:    %d issued, %d ok, %d errors, %d unsent (client saturated)\n",
		r.Issued, r.OK, r.Errors, r.Unsent)
	fmt.Printf("throughput:  %.1f req/s, %.1f predictions/s over %.2fs\n", r.AchievedRPS, r.PredictionsSec, r.Seconds)
	fmt.Printf("latency:     p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms  mean %.2fms\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.MeanMs)
	if r.Server != nil {
		fmt.Printf("server:      POST /v1/predict p50 %.2fms  p95 %.2fms  p99 %.2fms (%d requests)\n",
			r.Server.P50Ms, r.Server.P95Ms, r.Server.P99Ms, r.Server.Count)
	}
}

// getJSON fetches a URL into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
