package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// paramsBitsEqual reports the first parameter (weights or gradients)
// that differs between a and b under math.Float32bits equality.
func paramsBitsEqual(a, b *GNN, grads bool) error {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		x, y := pa[i].W, pb[i].W
		if grads {
			x, y = pa[i].Grad, pb[i].Grad
		}
		for k := range x.Data {
			if math.Float32bits(x.Data[k]) != math.Float32bits(y.Data[k]) {
				return fmt.Errorf("param %d (%s) element %d: %v vs %v", i, pa[i].Name, k, x.Data[k], y.Data[k])
			}
		}
	}
	return nil
}

// hideSeam wraps a layer so only the exported Layer methods remain,
// which forces BackwardParams onto its Backward-then-Put fallback.
type hideSeam struct{ Layer }

// TestBackwardParamsBitIdentical pins the params-only backward to the
// full one: every parameter gradient after BackwardParams equals the one
// after Backward bit for bit, for every layer kind, block and subgraph
// batches, and any worker count — and so do the weights after five Adam
// steps down each path.
func TestBackwardParamsBitIdentical(t *testing.T) {
	g, labels := powerLawGraph(t, 300, 2400)
	feats := randFeatures(g.NumNodes, 7, 2)
	targets := []graph.NodeID{0, 5, 17, 42, 99, 250, 123, 7}
	batchLabels := make([]int32, len(targets))
	for i, v := range targets {
		batchLabels[i] = labels[v]
	}
	degrees := Degrees(g)
	samplers := map[string]sampler.Sampler{
		"neighbor": sampler.NewNeighbor(g, []int{4, 4, 3}),
		"shadow":   sampler.NewShaDow(g, []int{3, 2}, 2),
	}
	for _, kind := range []ModelKind{KindSAGE, KindGCN, KindGIN} {
		for name, s := range samplers {
			mb := s.Sample(rand.New(rand.NewSource(9)), targets)
			x0 := Gather(feats, mb.InputNodes())
			for workers := 1; workers <= 4; workers++ {
				t.Run(fmt.Sprintf("%s/%s/w%d", kind, name, workers), func(t *testing.T) {
					pool := tensor.NewPool(workers)
					newModel := func() (*GNN, *Adam) {
						m, err := NewModel(ModelSpec{Kind: kind, Dims: []int{7, 8, 6, 5}, Seed: 11}, degrees)
						if err != nil {
							t.Fatal(err)
						}
						return m, NewAdam(0.05)
					}
					full, fullOpt := newModel()
					params, paramsOpt := newModel()
					for step := 0; step < 5; step++ {
						for _, m := range []*GNN{full, params} {
							m.ZeroGrad()
							_, dLogits := SoftmaxCrossEntropy(m.Forward(pool, mb, x0), batchLabels)
							if m == full {
								dX := m.Backward(pool, dLogits)
								if dX.Rows != x0.Rows || dX.Cols != x0.Cols {
									t.Fatalf("Backward dX %dx%d, want %dx%d", dX.Rows, dX.Cols, x0.Rows, x0.Cols)
								}
							} else {
								m.BackwardParams(pool, dLogits)
							}
						}
						if err := paramsBitsEqual(full, params, true); err != nil {
							t.Fatalf("step %d gradients: %v", step, err)
						}
						fullOpt.Step(full.Params())
						paramsOpt.Step(params.Params())
					}
					if err := paramsBitsEqual(full, params, false); err != nil {
						t.Fatalf("weights after 5 Adam steps: %v", err)
					}
				})
			}
		}
	}
}

// TestBackwardParamsFallback: a layer 0 without the params-only seam
// still yields Backward's gradients (its input gradient is computed and
// recycled).
func TestBackwardParamsFallback(t *testing.T) {
	g, labels := powerLawGraph(t, 300, 2400)
	feats := randFeatures(g.NumNodes, 7, 2)
	targets := []graph.NodeID{0, 5, 17, 42}
	batchLabels := []int32{labels[0], labels[5], labels[17], labels[42]}
	mb := sampler.NewNeighbor(g, []int{4, 4}).Sample(rand.New(rand.NewSource(3)), targets)
	x0 := Gather(feats, mb.InputNodes())
	pool := tensor.NewPool(2)
	var models []*GNN
	for _, wrap := range []bool{false, true} {
		m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{7, 6, 5}, Seed: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, dLogits := SoftmaxCrossEntropy(m.Forward(pool, mb, x0), batchLabels)
		if wrap {
			m.Layers[0] = hideSeam{m.Layers[0]}
			m.BackwardParams(pool, dLogits)
		} else {
			m.Backward(pool, dLogits)
		}
		models = append(models, m)
	}
	if err := paramsBitsEqual(models[0], models[1], true); err != nil {
		t.Fatal(err)
	}
}
