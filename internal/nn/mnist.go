package nn

import "math/rand"

// Dataset is a labelled image dataset for the network.
type Dataset struct {
	// Name identifies the dataset for registries, feedback keys and
	// snapshots; empty for ad-hoc datasets.
	Name string
	// Images holds one input vector per example, values in [0, 1].
	Images [][]float64
	// Labels holds the class index of each example.
	Labels []int
	// Classes is the number of classes.
	Classes int
}

// SyntheticMNIST generates a deterministic handwriting-like dataset:
// each of the classes owns a random smooth prototype in [0,1]^dim and
// examples are noisy copies. It stands in for the MNIST corpus the
// paper trains on (see DESIGN.md's substitution table) — what the
// Figure 17(b) experiment needs is a multi-class dense input the
// network can genuinely learn, not the actual digits.
func SyntheticMNIST(n, dim, classes int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	protos := make([][]float64, classes)
	for c := range protos {
		p := make([]float64, dim)
		// Smooth prototype: a few random "strokes" (bumps).
		for s := 0; s < 8; s++ {
			center := rng.Intn(dim)
			width := 3 + rng.Intn(8)
			for o := -width; o <= width; o++ {
				i := center + o
				if i >= 0 && i < dim {
					v := 1 - float64(abs(o))/float64(width+1)
					if v > p[i] {
						p[i] = v
					}
				}
			}
		}
		protos[c] = p
	}
	ds := &Dataset{Classes: classes}
	for i := 0; i < n; i++ {
		c := i % classes
		img := make([]float64, dim)
		for j := range img {
			v := protos[c][j] + noise*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			img[j] = v
		}
		ds.Images = append(ds.Images, img)
		ds.Labels = append(ds.Labels, c)
	}
	return ds
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
