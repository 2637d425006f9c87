package data

import (
	"fmt"
	"sort"
)

// registry is the constant table behind the serving API's GLM dataset
// names ("reuters", "rcv1", ...). Build generates afresh on every
// call; the serving catalog (internal/serve) keeps one frozen handle
// per name for the server that owns it.
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

// BuiltinNames lists the registered dataset names, sorted.
func BuiltinNames() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// IsBuiltin reports whether name is a registered dataset.
func IsBuiltin(name string) bool {
	_, ok := registry[name]
	return ok
}

// Build generates a registered dataset and wraps it in a frozen
// handle: appends are rejected and the version is pinned at 1. Every
// call generates a fresh instance.
func Build(name string) (*Handle, error) {
	gen, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown dataset %q (want one of %v)", name, BuiltinNames())
	}
	ds := gen()
	ds.Version = 1
	return frozenHandle(ds), nil
}
