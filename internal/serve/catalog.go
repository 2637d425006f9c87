package serve

import (
	"fmt"
	"sort"
	"sync"

	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/nn"
)

// Catalog answers every dataset name one server's API accepts: GLM
// data matrices (the generated ones, frozen at version 1, and the
// streams this server's appends created), factor graphs for gibbs jobs
// and image corpora for nn jobs. A generated name is built at most
// once per catalog and then shared; everything handed out is
// immutable (a stream publishes a fresh view per append), so
// concurrent jobs may read one instance. Each Scheduler and cluster
// Coordinator owns its own catalog, so two servers in one process
// never see each other's streams.
type Catalog struct {
	mu     sync.Mutex
	glm    map[string]*data.Handle
	graphs map[string]*factor.Graph
	nn     map[string]*nn.Dataset
}

// NewCatalog returns a catalog holding no streams; generated datasets
// are built on first use.
func NewCatalog() *Catalog {
	return &Catalog{
		glm:    map[string]*data.Handle{},
		graphs: map[string]*factor.Graph{},
		nn:     map[string]*nn.Dataset{},
	}
}

// memo returns m[name], building it on a miss. The build runs outside
// the lock, so a slow generation never stalls other lookups; when two
// callers race, the first stored instance wins.
func memo[V any](c *Catalog, m map[string]V, name string, build func(string) (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := m[name]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build(name)
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := m[name]; ok {
		return first, nil
	}
	m[name] = v
	return v, nil
}

// Handle returns the handle behind a GLM dataset name: a stream of
// this catalog, or a generated dataset behind a frozen handle.
func (c *Catalog) Handle(name string) (*data.Handle, error) {
	return memo(c, c.glm, name, data.Build)
}

// Dataset returns the current published view of a GLM dataset.
func (c *Catalog) Dataset(name string) (*data.Dataset, error) {
	h, err := c.Handle(name)
	if err != nil {
		return nil, err
	}
	return h.View(), nil
}

// Stream returns the growable handle for a stream, creating it (empty,
// version 1) on first use. Generated names are refused, since those
// datasets are frozen, and an existing stream must match the requested
// shape.
func (c *Catalog) Stream(name string, cols int, task data.Task) (*data.Handle, error) {
	if name == "" {
		return nil, fmt.Errorf("data: stream dataset needs a name")
	}
	if cols <= 0 {
		return nil, fmt.Errorf("data: stream %q needs cols > 0, got %d", name, cols)
	}
	if data.IsBuiltin(name) {
		return nil, fmt.Errorf("data: %q is a frozen registry dataset; pick a new name for a stream", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.glm[name]; ok {
		if h.Cols() != cols || h.Task() != task {
			return nil, fmt.Errorf("data: stream %q exists with cols=%d task=%s (requested cols=%d task=%s)",
				name, h.Cols(), h.Task(), cols, task)
		}
		return h, nil
	}
	h := data.NewStream(name, cols, task)
	c.glm[name] = h
	return h, nil
}

// Datasets lists the GLM dataset names: the generated ones plus this
// catalog's streams, sorted.
func (c *Catalog) Datasets() []string {
	out := data.BuiltinNames()
	c.mu.Lock()
	for name, h := range c.glm {
		if !h.Frozen() {
			out = append(out, name)
		}
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// Graph returns the shared instance of a registered factor graph.
func (c *Catalog) Graph(name string) (*factor.Graph, error) {
	return memo(c, c.graphs, name, factor.Build)
}

// NNDataset returns the shared instance of a registered image dataset
// and the network architecture registered with it.
func (c *Catalog) NNDataset(name string) (*nn.Dataset, []int, error) {
	ds, err := memo(c, c.nn, name, nn.Build)
	if err != nil {
		return nil, nil, err
	}
	sizes, err := nn.Sizes(name)
	return ds, sizes, err
}
