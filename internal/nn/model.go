package nn

import (
	"fmt"
	"math/rand"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// ModelKind selects the GNN architecture.
type ModelKind string

// KindSAGE and KindGCN are the two architectures the paper evaluates;
// KindGIN is a model-zoo extension (Graph Isomorphism Network, GIN-0).
const (
	KindSAGE ModelKind = "sage"
	KindGCN  ModelKind = "gcn"
	KindGIN  ModelKind = "gin"
)

// ModelSpec describes a GNN model instance: architecture and layer
// dimensions. Dims has length L+1: input feature length, hidden widths,
// and the class count (the paper uses [f0, 128, 128, classes]).
type ModelSpec struct {
	Kind ModelKind
	Dims []int
	Seed int64
}

// GNN is a multi-layer GNN model replica. It owns its parameters, the
// per-batch activation cache (each layer caches its own inputs), and a
// shared buffer pool recycling every per-batch matrix, so each ARGO
// process uses its own replica and steady-state batches allocate no
// matrix storage.
type GNN struct {
	Spec   ModelSpec
	Layers []Layer

	// bufs recycles per-batch matrices across all layers of this
	// replica. Layers built by NewModel share it; callers gathering
	// input features may draw from (and return to) the same pool via
	// Buffers.
	bufs *tensor.BufPool

	// cached between Forward and Backward
	lastBatch *sampler.MiniBatch
}

// NewModel builds a GNN replica. Replicas built with equal specs (same
// seed) have bit-identical initial parameters — the property the
// multi-process engine relies on. degrees is required for KindGCN
// (global degree array) and ignored for KindSAGE.
func NewModel(spec ModelSpec, degrees []int) (*GNN, error) {
	if len(spec.Dims) < 2 {
		return nil, fmt.Errorf("nn: model needs at least 2 dims, got %v", spec.Dims)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	m := &GNN{Spec: spec, bufs: tensor.NewBufPool()}
	numLayers := len(spec.Dims) - 1
	for l := 0; l < numLayers; l++ {
		relu := l < numLayers-1
		switch spec.Kind {
		case KindSAGE:
			m.Layers = append(m.Layers, NewSAGELayer(rng, spec.Dims[l], spec.Dims[l+1], relu))
		case KindGCN:
			if degrees == nil {
				return nil, fmt.Errorf("nn: GCN model requires global degrees")
			}
			m.Layers = append(m.Layers, NewGCNLayer(rng, spec.Dims[l], spec.Dims[l+1], relu, degrees))
		case KindGIN:
			m.Layers = append(m.Layers, NewGINLayer(rng, spec.Dims[l], spec.Dims[l+1], relu))
		default:
			return nil, fmt.Errorf("nn: unknown model kind %q", spec.Kind)
		}
	}
	for _, l := range m.Layers {
		if bl, ok := l.(bufferedLayer); ok {
			bl.setBufPool(m.bufs)
		}
	}
	return m, nil
}

// NumLayers returns the model depth.
func (m *GNN) NumLayers() int { return len(m.Layers) }

// Buffers returns the replica's shared matrix buffer pool. Callers that
// gather per-batch inputs (feature matrices, input gradients) can Get
// from and Put back into it to keep the whole step allocation-free; a
// Put matrix must no longer be referenced by the caller.
func (m *GNN) Buffers() *tensor.BufPool { return m.bufs }

// Params returns all trainable parameters in a stable order.
func (m *GNN) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all gradient accumulators.
func (m *GNN) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// Forward runs the model on a sampled batch. x0 must hold the gathered
// input features for mb.InputNodes() (one row per input node, in order).
// It returns the logits for the batch targets.
func (m *GNN) Forward(pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix) *tensor.Matrix {
	m.lastBatch = mb
	x := x0
	if mb.Sub != nil {
		adj := SubAdj{S: mb.Sub}
		for _, l := range m.Layers {
			x = l.Forward(pool, adj, x)
		}
		// Readout: the first NumTargets subgraph rows are the targets.
		nt := mb.Sub.NumTargets
		return tensor.FromSlice(nt, x.Cols, x.Data[:nt*x.Cols])
	}
	if len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	for li, l := range m.Layers {
		x = l.Forward(pool, BlockAdj{B: &mb.Blocks[li]}, x)
	}
	return x
}

// Infer runs a fused forward-only pass: bit-identical logits to Forward
// (same per-row operation order) without caching activations or
// materialising the intermediate aggregation matrices — the serving
// path. The returned matrix draws from the model's buffer pool; callers
// done with it may Put it back via Buffers. Infer does not disturb the
// Forward/Backward activation cache.
func (m *GNN) Infer(pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix) *tensor.Matrix {
	if mb.Sub == nil && len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	return m.InferReuse(pool, mb, x0, nil)
}

// InferReuse is the activation-reuse variant of Infer: before each
// layer consumes its input, inject(layer, x) may overwrite rows of x
// with externally known activations — precomputed hub embeddings being
// the serving use. Row j of layer li's input corresponds to
// mb.Blocks[li].SrcNodes[j], so an injector that fills every known row
// makes a gather pruned at those nodes (sampler.SamplePruned)
// bit-identical to the unpruned pass: full-neighborhood aggregation
// makes each per-layer, per-node activation a pure function of (model,
// graph, features, node), so a stored value and a recomputed one carry
// the same bits. inject may be nil (plain fused inference).
//
// A batch gathered with fewer blocks than the model has layers runs
// only that prefix of layers — the hook precompute uses to read
// intermediate activations: an L'-block full gather followed by an
// L'-layer prefix pass yields exactly the targets' layer-L' outputs.
// Subgraph (ShaDow) batches support neither injection nor prefixing.
func (m *GNN) InferReuse(pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix, inject func(layer int, x *tensor.Matrix)) *tensor.Matrix {
	x := x0
	if mb.Sub != nil {
		if inject != nil {
			panic("nn: InferReuse injection requires a block batch, not a subgraph")
		}
		adj := SubAdj{S: mb.Sub}
		for _, l := range m.Layers {
			next := l.Infer(pool, adj, x)
			if x != x0 {
				m.bufs.Put(x)
			}
			x = next
		}
		nt := mb.Sub.NumTargets
		return tensor.FromSlice(nt, x.Cols, x.Data[:nt*x.Cols])
	}
	if len(mb.Blocks) > len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	for li := range mb.Blocks {
		if inject != nil {
			inject(li, x)
		}
		next := m.Layers[li].Infer(pool, BlockAdj{B: &mb.Blocks[li]}, x)
		if x != x0 {
			m.bufs.Put(x)
		}
		x = next
	}
	return x
}

// paramBackwarder is the seam BackwardParams uses to skip a layer's
// input gradient: every built-in layer implements it.
type paramBackwarder interface {
	backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantDX bool) *tensor.Matrix
}

// Backward propagates dLogits (gradient w.r.t. Forward's return value)
// through the model, accumulating parameter gradients. It returns the
// gradient w.r.t. the gathered input features, which only the local
// regime's gradient router consumes; training steps that discard it call
// BackwardParams instead. Intermediate layer gradients are recycled
// through the model's buffer pool; the returned matrix is the caller's
// to keep (or Put back via Buffers).
func (m *GNN) Backward(pool *tensor.Pool, dLogits *tensor.Matrix) *tensor.Matrix {
	return m.backward(pool, dLogits, true)
}

// BackwardParams accumulates exactly the parameter gradients Backward
// does, bit for bit, but stops at layer 0's parameters: the input-feature
// gradient (layer 0's transposed matmul, its neighbour scatter and both
// buffers) is never computed.
func (m *GNN) BackwardParams(pool *tensor.Pool, dLogits *tensor.Matrix) {
	m.backward(pool, dLogits, false)
}

func (m *GNN) backward(pool *tensor.Pool, dLogits *tensor.Matrix, wantDX bool) *tensor.Matrix {
	mb := m.lastBatch
	if mb == nil {
		panic("nn: Backward before Forward")
	}
	grad := dLogits
	adjFor := func(li int) Adj { return BlockAdj{B: &mb.Blocks[li]} }
	if mb.Sub != nil {
		// Expand target-row gradients to the full subgraph width.
		adj := SubAdj{S: mb.Sub}
		full := m.bufs.Get(len(mb.Sub.Nodes), dLogits.Cols)
		copy(full.Data[:dLogits.Rows*dLogits.Cols], dLogits.Data)
		grad = full
		adjFor = func(int) Adj { return adj }
	}
	for li := len(m.Layers) - 1; li >= 0; li-- {
		l := m.Layers[li]
		var next *tensor.Matrix
		if pb, ok := l.(paramBackwarder); ok && li == 0 && !wantDX {
			pb.backward(pool, adjFor(li), grad, false)
		} else {
			next = l.Backward(pool, adjFor(li), grad)
		}
		if grad != dLogits {
			m.bufs.Put(grad)
		}
		grad = next
	}
	if !wantDX {
		m.bufs.Put(grad) // a layer without the seam built dX anyway
		return nil
	}
	return grad
}

// Gather copies the feature rows of ids from feats into a new matrix —
// the memory-bound index_select the paper's Fig. 2 highlights.
func Gather(feats *tensor.Matrix, ids []graph.NodeID) *tensor.Matrix {
	return GatherPooled(nil, feats, ids)
}

// GatherPooled is Gather with the output drawn from bufs (nil → plain
// allocation): recycling the gathered batch back into the same pool
// after the step makes the steady-state input gather allocation-free.
func GatherPooled(bufs *tensor.BufPool, feats *tensor.Matrix, ids []graph.NodeID) *tensor.Matrix {
	out := bufs.Get(len(ids), feats.Cols)
	for i, v := range ids {
		copy(out.Row(i), feats.Row(int(v)))
	}
	return out
}

// Degrees extracts the global degree array a GCN model needs.
func Degrees(g *graph.CSR) []int {
	d := make([]int, g.NumNodes)
	for v := range d {
		d[v] = g.Degree(graph.NodeID(v))
	}
	return d
}
