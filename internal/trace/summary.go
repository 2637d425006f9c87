package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// PhaseStat is one phase's aggregate over a recorder's lifetime,
// JSON-shaped for job status and the trace endpoint.
type PhaseStat struct {
	// Phase is the phase name ("exec", "flush", ...).
	Phase string `json:"phase"`
	// Count is the number of spans recorded.
	Count int64 `json:"count"`
	// Seconds is the summed span duration.
	Seconds float64 `json:"seconds"`
	// Steps is the summed work units (worker and exec spans).
	Steps int64 `json:"steps,omitempty"`
}

// Summary is a recorder's aggregate phase breakdown. The derived
// fields turn the raw spans into the step-vs-flush-vs-barrier story:
//
//   - StepSeconds is pure update work: worker loops minus their flushes
//     (parallel), or the exec window minus mid-epoch syncs (simulated,
//     whose single goroutine has no worker spans).
//   - BarrierSeconds is straggler wait plus pool orchestration: the
//     worker window costs width×exec wall (width = concurrent pool
//     lanes, or workers when each has its own goroutine), lanes were
//     busy for Σworker of it, and the rest is wakeup lag and barrier
//     idling — the overhead that separates a parallel Gibbs sweep
//     from its lanes' sampling work.
//   - Coverage is Σ(top-level phase seconds)/Σ(epoch seconds): how much
//     of the traced wall clock the named spans account for.
type Summary struct {
	// Epochs is the number of complete epochs recorded.
	Epochs int64 `json:"epochs"`
	// EpochSeconds is the summed epoch wall clock.
	EpochSeconds float64 `json:"epoch_seconds"`
	// Workers is the per-epoch worker goroutine count (0 until the
	// executor allocates worker buffers).
	Workers int `json:"workers"`
	// Phases holds the non-empty raw phase aggregates.
	Phases []PhaseStat `json:"phases"`
	// StepSeconds and BarrierSeconds are derived (see type comment).
	StepSeconds    float64 `json:"step_seconds"`
	BarrierSeconds float64 `json:"barrier_seconds"`
	// Coverage is the fraction of epoch wall clock attributed to named
	// top-level phases, in [0, ~1].
	Coverage float64 `json:"coverage"`
	// SpansRetained and SpansDropped describe the journal ring: spans
	// currently held, and spans overwritten since the job began.
	SpansRetained int   `json:"spans_retained"`
	SpansDropped  int64 `json:"spans_dropped"`
}

// Summary computes the aggregate breakdown; zero-valued on nil.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		Epochs:        r.counts[PhaseEpoch],
		EpochSeconds:  float64(r.nanos[PhaseEpoch]) / 1e9,
		Workers:       r.workers,
		SpansRetained: len(r.ring),
		SpansDropped:  r.dropped,
	}
	var topNs int64
	for p := Phase(0); p < NumPhases; p++ {
		if r.counts[p] == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseStat{
			Phase:   p.String(),
			Count:   r.counts[p],
			Seconds: float64(r.nanos[p]) / 1e9,
			Steps:   r.steps[p],
		})
		if p.topLevel() {
			topNs += r.nanos[p]
		}
	}
	if workerNs := r.nanos[PhaseWorker]; workerNs > 0 {
		s.StepSeconds = float64(workerNs-r.nanos[PhaseFlush]) / 1e9
		// The concurrency width is the pool-lane count when the executor
		// multiplexes logical workers onto fewer goroutines, else the
		// worker count.
		width := r.lanes
		if width == 0 {
			width = r.workers
		}
		if width > 0 {
			s.BarrierSeconds = float64(int64(width)*r.nanos[PhaseExec]-workerNs) / 1e9
		}
	} else {
		s.StepSeconds = float64(r.nanos[PhaseExec]-r.nanos[PhaseSync]) / 1e9
	}
	if s.StepSeconds < 0 {
		s.StepSeconds = 0
	}
	if s.BarrierSeconds < 0 {
		s.BarrierSeconds = 0
	}
	if epochNs := r.nanos[PhaseEpoch]; epochNs > 0 {
		s.Coverage = float64(topNs) / float64(epochNs)
	}
	return s
}

// WorkerUtil is one worker goroutine's utilization over the retained
// journal: how much of the executor's worker window it spent stepping.
type WorkerUtil struct {
	// Worker is the worker id.
	Worker int `json:"worker"`
	// BusySeconds sums the worker's step-loop spans.
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is BusySeconds over the exec window of the same
	// epochs; the shortfall is barrier wait and spawn lag.
	Utilization float64 `json:"utilization"`
	// Steps is the worker's summed work units.
	Steps int64 `json:"steps"`
}

// Utilization derives per-worker utilization from a span journal: for
// every epoch with an exec span, each worker's busy time is compared
// against the exec window. Simulated-executor journals (no worker
// spans) return nil.
func Utilization(spans []Span) []WorkerUtil {
	execNs := map[int32]int64{} // epoch -> exec window ns
	for _, s := range spans {
		if s.Phase == PhaseExec {
			execNs[s.Epoch] += s.Dur
		}
	}
	type acc struct {
		busy, win, steps int64
	}
	byWorker := map[int32]*acc{}
	for _, s := range spans {
		if s.Phase != PhaseWorker {
			continue
		}
		win, ok := execNs[s.Epoch]
		if !ok {
			continue
		}
		a := byWorker[s.Worker]
		if a == nil {
			a = &acc{}
			byWorker[s.Worker] = a
		}
		a.busy += s.Dur
		a.win += win
		a.steps += s.Steps
	}
	if len(byWorker) == 0 {
		return nil
	}
	ids := make([]int, 0, len(byWorker))
	for w := range byWorker {
		ids = append(ids, int(w))
	}
	sort.Ints(ids)
	out := make([]WorkerUtil, 0, len(ids))
	for _, w := range ids {
		a := byWorker[int32(w)]
		u := WorkerUtil{Worker: w, BusySeconds: float64(a.busy) / 1e9, Steps: a.steps}
		if a.win > 0 {
			u.Utilization = float64(a.busy) / float64(a.win)
		}
		out = append(out, u)
	}
	return out
}

// SpanJSON is one journal span shaped for the trace endpoint.
type SpanJSON struct {
	Phase   string  `json:"phase"`
	Worker  int     `json:"worker"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	Steps   int64   `json:"steps,omitempty"`
}

// EpochSpans groups one epoch's retained spans.
type EpochSpans struct {
	Epoch int        `json:"epoch"`
	Spans []SpanJSON `json:"spans"`
}

// Tree groups a journal by epoch, each epoch's spans in start order —
// the span tree the trace endpoint serves (nesting is implied: worker,
// flush and sync spans sit inside their epoch's exec window).
func Tree(spans []Span) []EpochSpans {
	byEpoch := map[int32][]Span{}
	var epochs []int32
	for _, s := range spans {
		if _, ok := byEpoch[s.Epoch]; !ok {
			epochs = append(epochs, s.Epoch)
		}
		byEpoch[s.Epoch] = append(byEpoch[s.Epoch], s)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	out := make([]EpochSpans, 0, len(epochs))
	for _, ep := range epochs {
		group := byEpoch[ep]
		sort.Slice(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		es := EpochSpans{Epoch: int(ep), Spans: make([]SpanJSON, 0, len(group))}
		for _, s := range group {
			es.Spans = append(es.Spans, SpanJSON{
				Phase:   s.Phase.String(),
				Worker:  int(s.Worker),
				StartUs: float64(s.Start) / 1e3,
				DurUs:   float64(s.Dur) / 1e3,
				Steps:   s.Steps,
			})
		}
		out = append(out, es)
	}
	return out
}

// chromeEvent is one Chrome trace_event record ("X" complete events,
// the chrome://tracing and Perfetto import format).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports a journal as Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
// Engine-level spans land on tid 0, worker w on tid w+1.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Phase.String(),
			Ph:   "X",
			Pid:  1,
			Tid:  int(s.Worker) + 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Args: map[string]any{"epoch": s.Epoch},
		}
		if s.Steps > 0 {
			ev.Args["steps"] = s.Steps
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
