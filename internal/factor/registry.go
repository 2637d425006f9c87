package factor

import (
	"fmt"
	"sort"
)

// graphBuilders is the constant table behind the serving API's
// "dataset" field for Gibbs jobs: named, deterministic factor graphs
// whose name pins the full structure (so plan-cache keys stay honest).
// Build generates afresh on every call; the serving catalog
// (internal/serve) keeps one shared, immutable instance per name.
var graphBuilders = map[string]func() *Graph{
	// The paper's Paleo-scale inference workload.
	"paleo": Paleo,
	// The executor-benchmark scale of paleo (5x variables and factors).
	"paleo-xl": PaleoXL,
	// A small loopy graph with tractable exact marginals — the
	// validation graph of the tests and examples.
	"cycle5": Cycle5,
	// Two independent attractive/repulsive pairs.
	"pairs4": Pairs4,
}

// Cycle5 returns a five-variable cycle with mixed attractive and
// repulsive pairwise potentials; small enough for ExactMarginals.
func Cycle5() *Graph {
	g, err := NewGraph(5, []Factor{
		{Vars: []int32{0, 1}, Weight: 1.2},
		{Vars: []int32{1, 2}, Weight: -0.8},
		{Vars: []int32{2, 3}, Weight: 0.5},
		{Vars: []int32{3, 4}, Weight: 1.5},
		{Vars: []int32{0, 4}, Weight: 0.3},
	})
	if err != nil {
		panic(err) // unreachable: literal indices are in range
	}
	g.Name = "cycle5"
	return g
}

// Pairs4 returns four variables in one attractive and one repulsive
// pair; small enough for ExactMarginals.
func Pairs4() *Graph {
	g, err := NewGraph(4, []Factor{
		{Vars: []int32{0, 1}, Weight: 1},
		{Vars: []int32{2, 3}, Weight: -1},
	})
	if err != nil {
		panic(err) // unreachable: literal indices are in range
	}
	g.Name = "pairs4"
	return g
}

// Build generates a registered factor graph. Every call builds a
// fresh instance.
func Build(name string) (*Graph, error) {
	build, ok := graphBuilders[name]
	if !ok {
		return nil, fmt.Errorf("factor: unknown graph %q (want one of %v)", name, BuiltinNames())
	}
	return build(), nil
}

// BuiltinNames lists the registered graph names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(graphBuilders))
	for n := range graphBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
