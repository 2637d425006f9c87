package nn

import (
	"fmt"
	"sort"
)

// builtins is the constant table behind the serving API's "dataset"
// field for NN jobs: named, deterministic datasets paired with the
// architecture that trains on them (the name pins both, so feedback
// keys stay honest). Build generates afresh on every call; the serving
// catalog (internal/serve) keeps one shared, immutable instance per
// name.
var builtins = map[string]struct {
	sizes []int
	build func() *Dataset
}{
	// The Figure 17(b) configuration: the scaled seven-layer LeCun
	// network on the synthetic MNIST analog.
	"mnist": {LeCunSizes(), func() *Dataset { return SyntheticMNIST(400, 256, 10, 0.08, 3) }},
	// A small fast-training variant for demos and serving tests.
	"mnist-small": {[]int{32, 24, 16, 10}, func() *Dataset { return SyntheticMNIST(240, 32, 10, 0.08, 1) }},
}

// BuiltinNames lists the registered dataset names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build generates a registered dataset. Every call builds a fresh
// instance; its architecture is Sizes(name).
func Build(name string) (*Dataset, error) {
	b, ok := builtins[name]
	if !ok {
		return nil, unknown(name)
	}
	ds := b.build()
	ds.Name = name
	return ds, nil
}

// Sizes returns the network architecture registered with a dataset,
// without building the dataset. The slice is shared: callers must not
// modify it.
func Sizes(name string) ([]int, error) {
	b, ok := builtins[name]
	if !ok {
		return nil, unknown(name)
	}
	return b.sizes, nil
}

func unknown(name string) error {
	return fmt.Errorf("nn: unknown dataset %q (want one of %v)", name, BuiltinNames())
}
