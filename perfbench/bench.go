package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The end-to-end metrics every workload reports (trace 0), and the
// per-layer metrics every traced run reports (trace 1). BENCHMARK.json
// lists the same names and units; the self-test checks they agree.
var endToEnd = []struct{ name, unit string }{
	{"goal_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"final_loss", "loss"},
}

var perLayer = []struct{ name, unit string }{
	{"model.row_step_ns_per_nnz", "ns"},
	{"vec.flush_sparse_ns_per_coord", "ns"},
	{"model.predict_ns_per_nnz", "ns"},
	{"core.epoch_ms", "ms"},
	{"core.exec_s", "s"},
	{"core.step_s", "s"},
	{"core.flush_s", "s"},
	{"core.steal_s", "s"},
	{"core.barrier_s", "s"},
	{"core.assign_s", "s"},
	{"core.loss_s", "s"},
	{"core.epochs_to_target", "count"},
	{"core.build_ms", "ms"},
	{"data.generate_ms", "ms"},
	{"factor.samples_per_s", "1/s"},
	{"factor.sweep_ms", "ms"},
	{"serve.predict_client_ms", "ms"},
	{"serve.predict_server_ms", "ms"},
	{"serve.registry_predict_us", "us"},
	{"serve.append_ms", "ms"},
	{"data.append_rows_per_s", "1/s"},
	{"serve.adopt_lag_ms", "ms"},
	{"serve.publish_ms", "ms"},
	{"serve.promote_ratio", "ratio"},
	{"core.snapshot_encode_ms", "ms"},
	{"core.snapshot_bytes", "bytes"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// unitOf returns a metric's unit, or "" for a name the table lacks
// (which the self-test reports).
func unitOf(table []struct{ name, unit string }, name string) string {
	for _, m := range table {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// bench accumulates one invocation's measurements.
type bench struct {
	cfg   config
	spans *spanLog // nil unless tracing

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string

	// steal is each round's hypervisor steal, in percent of CPU time.
	steal []float64

	e2e   map[string]metric
	layer map[string]metric
	// source records, per per-layer metric, whether the workload's own
	// run or a fixed-size probe measured it.
	source map[string]string
}

func newBench(cfg config) *bench {
	b := &bench{
		cfg:    cfg,
		e2e:    map[string]metric{},
		layer:  map[string]metric{},
		source: map[string]string{},
	}
	if cfg.trace {
		b.spans = newSpanLog()
	}
	return b
}

// op counts one attempted operation.
func (b *bench) op() { b.attempted.Add(1) }

// fail counts one failed operation (a request error or a failed
// correctness check) and keeps the first few reasons for stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// setLayer records a per-layer metric measured by the workload's own
// run.
func (b *bench) setLayer(name string, v float64) {
	b.layer[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
	b.source[name] = b.cfg.workload
}

// rounds runs fn until the run's measuring time is spent, and at least
// min times. Each call is one round: set-up plus the workload's fixed
// work. A round starts only if one more round of the average length so
// far still fits, so a run lasts about its measuring time. Every round
// starts from a freshly collected heap, so garbage from the previous
// round does not land in this one's timings.
func (b *bench) rounds(min int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= min {
			spent := time.Since(start).Seconds()
			if spent+spent/float64(i) > b.cfg.seconds {
				return nil
			}
		}
		runtime.GC()
		before := readCPUTicks()
		if err := fn(i); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		b.steal = append(b.steal, before.stealPct(readCPUTicks()))
	}
}

// cpuTicks is the machine-wide CPU time split from /proc/stat.
type cpuTicks struct{ total, steal float64 }

// readCPUTicks reads the aggregate cpu line of /proc/stat; zero if it
// is unreadable (the steal figure is then reported as 0).
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i >= 8 {
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between two readings: interference from outside the benchmark.
func (a cpuTicks) stealPct(b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

// e2eSamples is what a workload measured across its rounds.
type e2eSamples struct {
	goals, setups, losses, rss []float64
	// ops holds each round's per-operation latencies, ms.
	ops [][]float64
	// tailQ is the tail percentile, e.g. 0.9. With roundTails the tail
	// is the median over rounds of each round's tail percentile, which a
	// burst of host interference in one round cannot move; otherwise it
	// is taken over all operations pooled.
	tailQ      float64
	roundTails bool
}

// report turns a workload's samples into the end-to-end metrics, and
// prints the sample counts behind them.
func (b *bench) report(s e2eSamples) {
	set := func(name string, v float64) { b.e2e[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	var pooled, p50s, p90s, tails []float64
	for _, r := range s.ops {
		pooled = append(pooled, r...)
		p50s = append(p50s, median(r))
		p90s = append(p90s, quantile(r, 0.9))
		tails = append(tails, quantile(r, s.tailQ))
	}
	tail := quantile(pooled, s.tailQ)
	beyond := math.Round(float64(len(pooled)) * (1 - s.tailQ))
	if s.roundTails {
		tail = median(tails)
		beyond = math.Round(float64(len(pooled)/max(len(s.ops), 1)) * (1 - s.tailQ))
	}
	set("goal_s", median(s.goals))
	set("op_p50_ms", quantile(pooled, 0.5))
	set("op_tail_ms", tail)
	set("setup_s", median(s.setups))
	set("peak_rss_mb", median(s.rss))
	set("final_loss", median(s.losses))
	printLine("samples", map[string]any{
		"rounds":             len(s.goals),
		"ops":                len(pooled),
		"op_tail":            fmt.Sprintf("p%g", 100*s.tailQ),
		"op_tail_per_round":  s.roundTails,
		"ops_beyond_tail":    beyond,
		"goal_s_rounds":      s.goals,
		"setup_s_rounds":     s.setups,
		"final_loss_rounds":  s.losses,
		"peak_rss_mb_rounds": s.rss,
		"op_p50_ms_rounds":   p50s,
		"op_p90_ms_rounds":   p90s,
		"op_tail_ms_rounds":  tails,
		"steal_pct_rounds":   b.steal,
	})
}

// finish assembles the result line. A traced run fills the per-layer
// metrics its workload does not exercise from fixed-size probes.
func (b *bench) finish() (result, error) {
	res := result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if b.cfg.trace {
		if err := b.fillFromProbes(); err != nil {
			return res, err
		}
		for _, m := range perLayer {
			v, ok := b.layer[m.name]
			if !ok {
				return res, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = v
		}
		printLine("sources", b.source)
	} else {
		for _, m := range endToEnd {
			v, ok := b.e2e[m.name]
			if !ok {
				return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = v
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.fail("metric %s is not finite", name)
		}
	}
	res.Attempted = b.attempted.Load()
	res.Failed = b.failed.Load()
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", f)
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// vmHWM returns a process's peak resident set size in MB, from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sourceCommit names the source a run measured: the git commit when the
// root is a git checkout, else a digest of its Go sources and module
// files.
func sourceCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// spanLog holds the benchmark's own spans: one per call into a layer,
// with parent links, kept in memory and written when the run ends.
type spanLog struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

type spanRec struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// span is an open span; the zero value (tracing off) does nothing.
type span struct {
	log         *spanLog
	id, parent  int64
	layer, name string
	start       time.Time
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent (0 for a root). Nil-safe: with
// tracing off it returns an inert span.
func (l *spanLog) begin(parent int64, layer, name string) span {
	if l == nil {
		return span{}
	}
	return span{log: l, id: l.next.Add(1), parent: parent, layer: layer, name: name, start: time.Now()}
}

// end closes the span and returns its id, for children opened later.
func (s span) end() {
	if s.log == nil {
		return
	}
	now := time.Now()
	rec := spanRec{
		ID: s.id, Parent: s.parent, Layer: s.layer, Name: s.name,
		StartUs: float64(s.start.Sub(s.log.origin)) / 1e3,
		DurUs:   float64(now.Sub(s.start)) / 1e3,
	}
	s.log.mu.Lock()
	s.log.spans = append(s.log.spans, rec)
	s.log.mu.Unlock()
}

// write stores the spans, with the host record, as JSON under dir.
func (l *spanLog) write(dir, workload string, seed int64, h host) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].ID < l.spans[j].ID })
	data, err := json.Marshal(map[string]any{"host": h, "spans": l.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// children tracks the processes a run started, so the deadline can stop
// them.
var (
	childMu  sync.Mutex
	children = map[*exec.Cmd]bool{}
)

func trackChild(c *exec.Cmd, on bool) {
	childMu.Lock()
	defer childMu.Unlock()
	if on {
		children[c] = true
	} else {
		delete(children, c)
	}
}

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for c := range children {
		if c.Process != nil {
			_ = c.Process.Kill() // best effort: the process may have exited
		}
	}
}
