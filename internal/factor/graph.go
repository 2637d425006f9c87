// Package factor implements factor graphs and Gibbs sampling, the
// paper's first extension (Section 5.1, Appendix D.1). A factor graph
// is a bipartite graph of boolean variables and factors; sampling one
// variable requires fetching every factor that contains it plus the
// assignments of all variables those factors touch — exactly the
// column-to-row access method, with the factor-incidence matrix in the
// role of the data and the variable assignment in the role of the
// model.
//
// The PerNode strategy runs one independent chain per NUMA node and
// pools their samples at the end (classically valid; the paper cites
// Robert & Casella), which is what yields ~4x the sample throughput of
// the single PerMachine chain in Figure 17(b).
package factor

import (
	"fmt"
	"math/rand"
	"slices"
)

// Kind selects a factor's potential function. The set mirrors the
// factor templates of DeepDive-style systems, which the paper's Gibbs
// engine was built to serve.
type Kind int

const (
	// Equal fires (contributes Weight to the log-probability) when all
	// member variables share the same value.
	Equal Kind = iota
	// And fires when every member is 1.
	And
	// Or fires when at least one member is 1.
	Or
	// Imply fires unless all members but the last are 1 while the last
	// is 0 (logical A ∧ B ∧ … ⇒ Z).
	Imply
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Equal:
		return "equal"
	case And:
		return "and"
	case Or:
		return "or"
	case Imply:
		return "imply"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindByName parses a Kind from its lower-case name.
func kindByName(s string) (Kind, error) {
	switch s {
	case "equal":
		return Equal, nil
	case "and":
		return And, nil
	case "or":
		return Or, nil
	case "imply":
		return Imply, nil
	default:
		return 0, fmt.Errorf("factor: unknown factor kind %q", s)
	}
}

// Factor is one factor: a potential over a set of boolean variables.
// The potential contributes Weight to the log-probability whenever the
// Kind's condition holds; positive weights make the condition more
// likely, negative less.
type Factor struct {
	// Vars lists the variable indices the factor touches (≥ 1).
	Vars []int32
	// Weight is the log-potential when the factor fires.
	Weight float64
	// Kind selects the potential function; the zero value is Equal.
	Kind Kind
}

// fires reports whether the factor's condition holds under assign.
func (f *Factor) fires(assign []int8) bool {
	switch f.Kind {
	case Equal:
		first := assign[f.Vars[0]]
		for _, u := range f.Vars[1:] {
			if assign[u] != first {
				return false
			}
		}
		return true
	case And:
		for _, u := range f.Vars {
			if assign[u] == 0 {
				return false
			}
		}
		return true
	case Or:
		for _, u := range f.Vars {
			if assign[u] == 1 {
				return true
			}
		}
		return false
	case Imply:
		n := len(f.Vars)
		for _, u := range f.Vars[:n-1] {
			if assign[u] == 0 {
				return true // antecedent false: implication holds
			}
		}
		return assign[f.Vars[n-1]] == 1
	default:
		return false
	}
}

// Graph is a factor graph over boolean variables 0..NumVars-1.
type Graph struct {
	// Name identifies the graph for registries, feedback keys and
	// snapshots; empty for ad-hoc graphs.
	Name string
	// NumVars is the variable count.
	NumVars int
	// Factors is the factor list. It must not be modified after
	// NewGraph: the sampler index is built from it once.
	Factors []Factor

	// vinc, voth, inc and oth are the sampler index (sampler.go): the
	// "column" of the column-to-row access, flattened.
	vinc, voth []int32
	inc        []incidence
	oth        []int32
}

// NewGraph validates the factors and builds the graph's sampler index.
func NewGraph(numVars int, factors []Factor) (*Graph, error) {
	g := &Graph{NumVars: numVars, Factors: factors}
	if err := g.buildIndex(); err != nil {
		return nil, err
	}
	return g, nil
}

// NNZ returns the number of (variable, factor) incidences — the
// nonzero count of the bipartite incidence matrix (Figure 23b).
func (g *Graph) NNZ() int64 { return int64(len(g.inc)) }

// ConditionalLogOdds returns log P(x_v = 1 | rest) − log P(x_v = 0 |
// rest) under the assignment, evaluating each incident factor's
// potential at both values of v — once per occurrence of v, in factor
// order. The assignment is restored before returning. It scans every
// factor: it is the reference definition the sampler's kernel is
// checked against, not a hot path.
func (g *Graph) ConditionalLogOdds(v int, assign []int8) float64 {
	old := assign[v]
	var e1, e0 float64
	for i := range g.Factors {
		f := &g.Factors[i]
		for _, u := range f.Vars {
			if int(u) != v {
				continue
			}
			assign[v] = 1
			if f.fires(assign) {
				e1 += f.Weight
			}
			assign[v] = 0
			if f.fires(assign) {
				e0 += f.Weight
			}
		}
	}
	assign[v] = old
	return e1 - e0
}

// GenerateConfig parameterises a synthetic factor graph shaped like
// the paper's Paleo inference workload: many small factors (2-3
// variables) over a large variable set, with skewed variable degrees.
type GenerateConfig struct {
	// Vars is the variable count.
	Vars int
	// Factors is the factor count.
	Factors int
	// MaxArity is the largest factor size (min 2).
	MaxArity int
	// WeightStd scales the random factor weights.
	WeightStd float64
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds a random factor graph per the config, biasing
// variable selection toward low indices (Zipf-like degree skew).
func Generate(cfg GenerateConfig) *Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.MaxArity < 2 {
		cfg.MaxArity = 2
	}
	zipf := rand.NewZipf(rng, 1.3, 8, uint64(cfg.Vars-1))
	// Every factor's members are carved from one slab, capped so an
	// append to one factor's Vars reallocates instead of overwriting
	// the next factor's members.
	factors := make([]Factor, cfg.Factors)
	slab := make([]int32, 0, cfg.Factors*cfg.MaxArity)
	for i := range factors {
		arity := 2 + rng.Intn(cfg.MaxArity-1)
		start := len(slab)
		for len(slab)-start < arity {
			if v := int32(zipf.Uint64()); !slices.Contains(slab[start:], v) {
				slab = append(slab, v)
			}
		}
		factors[i] = Factor{Vars: slab[start:len(slab):len(slab)], Weight: cfg.WeightStd * rng.NormFloat64()}
	}
	g, err := NewGraph(cfg.Vars, factors)
	if err != nil {
		panic(err) // unreachable: generated indices are in range
	}
	return g
}

// Paleo returns the scaled analog of the paper's Paleo factor graph
// (69M factor rows, 30M variables, 108M nonzeros in Figure 10 —
// scaled to run in milliseconds while keeping ~2 incidences per
// factor and heavy degree skew).
func Paleo() *Graph {
	g := Generate(GenerateConfig{Vars: 4000, Factors: 9000, MaxArity: 3, WeightStd: 0.8, Seed: 42})
	g.Name = "paleo"
	return g
}

// PaleoXL is the executor-benchmark scale of Paleo: 5x the variables
// and factors, big enough that a parallel sweep's orchestration (pool
// wakeup, steal cursors, barrier) amortizes against real sampling work
// — the regime where the real-concurrency backend should beat the
// simulated interleaver. Same structure family and skew as Paleo.
func PaleoXL() *Graph {
	g := Generate(GenerateConfig{Vars: 20000, Factors: 45000, MaxArity: 3, WeightStd: 0.8, Seed: 43})
	g.Name = "paleo-xl"
	return g
}
