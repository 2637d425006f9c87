package data

import (
	"fmt"
	"sort"
	"sync"
)

// The named-dataset registry backs the serving layer: training requests
// name their dataset ("reuters", "rcv1", ...) and the registry hands
// back an immutable published view. Generation is deterministic but not
// free, so each dataset is built once, wrapped in a frozen Handle and
// cached. Like every Dataset, a published view builds its CSC form on
// first use, exactly once and race-safely, so views are safe to share
// across concurrent engines. Stream datasets (created by EnsureStream,
// grown by Append) live in the same namespace under growable handles.

var registry = map[string]func() *Dataset{
	"rcv1":       RCV1,
	"reuters":    Reuters,
	"reuters10x": ReutersReplicated,
	"music10x":   MusicRegressionReplicated,
	"music":      Music,
	"music-reg":  MusicRegression,
	"forest":     Forest,
	"amazon-lp":  AmazonLP,
	"google-lp":  GoogleLP,
	"amazon-qp":  AmazonQP,
	"google-qp":  GoogleQP,
	"clueweb":    func() *Dataset { return ClueWeb(0.1) },
}

var (
	cacheMu sync.Mutex
	handles = map[string]*Handle{}
)

// Names returns the registered dataset names — generators plus any
// streams created so far — sorted.
func Names() []string {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	seen := map[string]bool{}
	out := make([]string, 0, len(registry)+len(handles))
	for name := range registry {
		seen[name] = true
		out = append(out, name)
	}
	for name := range handles {
		if !seen[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// registryNames lists only the static generator names; safe to call
// with cacheMu held.
func registryNames() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName returns the current published view of a named dataset. The
// returned dataset is immutable (its lazily built CSC included) and
// safe to share across goroutines: appends to a stream publish a fresh
// view rather than mutating an already-returned one, so no caller can
// race another.
func ByName(name string) (*Dataset, error) {
	h, err := HandleByName(name)
	if err != nil {
		return nil, err
	}
	return h.View(), nil
}

// HandleByName returns the handle behind a named dataset, generating
// and freezing a registry dataset on first use. Stream handles are
// growable; registry handles reject appends.
func HandleByName(name string) (*Handle, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if h, ok := handles[name]; ok {
		return h, nil
	}
	gen, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown dataset %q (want one of %v)", name, registryNames())
	}
	cacheMu.Unlock()
	ds := gen()
	ds.Version = 1
	cacheMu.Lock()
	if h, ok := handles[name]; ok {
		return h, nil // lost a generation race; keep the first
	}
	h := frozenHandle(ds)
	handles[name] = h
	return h, nil
}

// EnsureStream returns the growable handle for a stream dataset,
// creating it (empty, version 1) on first use. Names owned by the
// static registry are rejected — those datasets are frozen — and an
// existing stream must match the requested shape.
func EnsureStream(name string, cols int, task Task) (*Handle, error) {
	if name == "" {
		return nil, fmt.Errorf("data: stream dataset needs a name")
	}
	if cols <= 0 {
		return nil, fmt.Errorf("data: stream %q needs cols > 0, got %d", name, cols)
	}
	if _, static := registry[name]; static {
		return nil, fmt.Errorf("data: %q is a frozen registry dataset; pick a new name for a stream", name)
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if h, ok := handles[name]; ok {
		if h.frozen {
			return nil, fmt.Errorf("data: %q is a frozen registry dataset; pick a new name for a stream", name)
		}
		if h.cols != cols || h.task != task {
			return nil, fmt.Errorf("data: stream %q exists with cols=%d task=%s (requested cols=%d task=%s)",
				name, h.cols, h.task, cols, task)
		}
		return h, nil
	}
	h := newStreamHandle(name, cols, task)
	handles[name] = h
	return h, nil
}
