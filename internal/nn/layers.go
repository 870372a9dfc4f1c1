package nn

import (
	"fmt"
	"math"
	"math/rand"

	"argo/internal/tensor"
)

// Layer is one GNN layer: Forward caches whatever Backward needs, so each
// layer instance belongs to exactly one model replica and processes one
// batch at a time (matching how the training engine drives it). A layer's
// Forward output is valid until that layer's next Forward or Infer call —
// with buffer pooling the storage is recycled into the next batch.
type Layer interface {
	Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter grads.
	Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix) *tensor.Matrix
	// Infer is the fused forward-only path: same bit-exact math as
	// Forward, but it neither caches activations for Backward nor
	// materialises the intermediate aggregation matrix — each row is
	// aggregated into per-worker scratch and multiplied straight into
	// the output tile.
	Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// bufferedLayer is the seam NewModel uses to thread one shared BufPool
// through every layer of a replica.
type bufferedLayer interface {
	setBufPool(bp *tensor.BufPool)
}

// adjCost returns the per-destination aggregation cost for weighted
// chunking: 1 (the self term) plus the row's sampled degree. Hub rows
// get proportionally narrower chunks, so a skewed batch no longer
// serialises behind the worker that owns the hub.
func adjCost(adj Adj) func(i int) int {
	return func(i int) int { return 1 + len(adj.Neighbors(i)) }
}

// reluRowInPlace applies ReLU to one row with the exact comparison
// tensor.ReLU uses (v > 0 keeps v, everything else — including NaN and
// -0 — becomes +0), so fused inference stays bit-identical to Forward.
func reluRowInPlace(row []float32) {
	for j, v := range row {
		if !(v > 0) {
			row[j] = 0
		}
	}
}

// denseRowMulAdd computes out = row·W + bias under the contract of the
// tensor.MatMul kernels (+0 start, ascending p, zero a-terms skipped, no
// FMA), followed by AddRowVector's bias add — the fused per-row
// equivalent of the unfused MatMul+AddRowVector pair, which keeps
// Infer == Forward to the bit.
func denseRowMulAdd(out, row []float32, w *tensor.Matrix, bias []float32) {
	for j := range out {
		out[j] = 0
	}
	n := w.Cols
	for p, av := range row {
		if av == 0 {
			continue
		}
		wr := w.Data[p*n : (p+1)*n]
		for j, wv := range wr {
			out[j] += float32(av * wv)
		}
	}
	for j, b := range bias {
		out[j] += b
	}
}

// paramBackward is the parameter half of every layer's backward pass.
// For out = act(in·W + b) it masks dOut by the ReLU (when relu) into
// dZ, then accumulates W.Grad += inᵀ·dZ and b.Grad += colsum(dZ), using
// *db as the bias scratch. It returns dZ for the input-gradient half;
// releaseDZ recycles it.
func paramBackward(pool *tensor.Pool, bufs *tensor.BufPool, w, b *Param, relu bool, in, out, dOut *tensor.Matrix, db *[]float32) *tensor.Matrix {
	dZ := dOut
	if relu {
		dZ = bufs.Get(dOut.Rows, dOut.Cols)
		tensor.ReLUBackward(dZ, dOut, out)
	}
	dW := bufs.Get(w.W.Rows, w.W.Cols)
	tensor.MatMulAT(pool, dW, in, dZ)
	tensor.Add(w.Grad, dW)
	bufs.Put(dW)
	if cap(*db) < dZ.Cols {
		*db = make([]float32, dZ.Cols)
	}
	sum := (*db)[:dZ.Cols]
	tensor.ColSum(sum, dZ)
	for k, v := range sum {
		b.Grad.Data[k] += v
	}
	return dZ
}

// releaseDZ returns paramBackward's dZ to bufs unless it is the
// caller's dOut.
func releaseDZ(bufs *tensor.BufPool, dZ, dOut *tensor.Matrix) {
	if dZ != dOut {
		bufs.Put(dZ)
	}
}

// SAGELayer implements GraphSAGE (paper Eq. 2 and 3):
//
//	a_v = h_v ∥ Mean({h_u : u ∈ N(v)})
//	h'_v = ReLU(a_v·W + b)
//
// The concatenated input has width 2·inDim. ReLU is skipped on the output
// layer (Relu=false).
type SAGELayer struct {
	InDim, OutDim int
	Relu          bool
	Weight        *Param // 2·InDim × OutDim
	Bias          *Param // 1 × OutDim

	bufs *tensor.BufPool // nil → plain allocation
	db   []float32       // bias-gradient scratch

	// cached activations from the last Forward
	x      *tensor.Matrix // layer input (numSrc × InDim)
	concat *tensor.Matrix // numDst × 2·InDim
	out    *tensor.Matrix // numDst × OutDim (post-activation)
}

// NewSAGELayer constructs a GraphSAGE layer with Xavier-initialised
// weights.
func NewSAGELayer(rng *rand.Rand, inDim, outDim int, relu bool) *SAGELayer {
	l := &SAGELayer{
		InDim: inDim, OutDim: outDim, Relu: relu,
		Weight: NewParam("sage.weight", 2*inDim, outDim),
		Bias:   NewParam("sage.bias", 1, outDim),
	}
	XavierUniform(rng, l.Weight)
	return l
}

// Params implements Layer.
func (l *SAGELayer) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *SAGELayer) setBufPool(bp *tensor.BufPool) { l.bufs = bp }

// aggConcatRow fills row (width 2·InDim, zeroed) with destination i's
// concatenated self state and mean-aggregated neighbourhood.
func (l *SAGELayer) aggConcatRow(row []float32, adj Adj, x *tensor.Matrix, i int) {
	in := l.InDim
	// Self half: destination's own previous-layer state (dst is a
	// prefix of src, so row i of x is destination i).
	copy(row[:in], x.Row(i))
	// Neighbour half: mean aggregation.
	nbrs := adj.Neighbors(i)
	if len(nbrs) == 0 {
		return
	}
	agg := row[in:]
	for _, j := range nbrs {
		src := x.Row(int(j))
		for k, v := range src {
			agg[k] += v
		}
	}
	invDeg := float32(1) / float32(len(nbrs))
	for k := range agg {
		agg[k] *= invDeg
	}
}

// Forward implements Layer.
func (l *SAGELayer) Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	numDst := adj.NumDst()
	l.x = x
	// Recycle the previous batch's activations: the layer processes one
	// batch at a time, so by the time Forward runs again the prior
	// output has been consumed.
	l.bufs.Put(l.concat)
	l.bufs.Put(l.out)
	l.concat = l.bufs.Get(numDst, 2*l.InDim)
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.aggConcatRow(l.concat.Row(i), adj, x, i)
		}
	})
	l.out = l.bufs.Get(numDst, l.OutDim)
	tensor.MatMul(pool, l.out, l.concat, l.Weight.W)
	tensor.AddRowVector(l.out, l.Bias.W.Data)
	if l.Relu {
		tensor.ReLU(l.out, l.out)
	}
	return l.out
}

// Infer implements Layer: fused aggregate→matmul with per-worker scratch
// instead of a materialised numDst×2·InDim concat matrix.
func (l *SAGELayer) Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	numDst := adj.NumDst()
	out := l.bufs.Get(numDst, l.OutDim)
	w, bias := l.Weight.W, l.Bias.W.Data
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		scratch := l.bufs.Get(1, 2*l.InDim)
		row := scratch.Data
		for i := lo; i < hi; i++ {
			for k := range row {
				row[k] = 0
			}
			l.aggConcatRow(row, adj, x, i)
			dr := out.Row(i)
			denseRowMulAdd(dr, row, w, bias)
			if l.Relu {
				reluRowInPlace(dr)
			}
		}
		l.bufs.Put(scratch)
	})
	return out
}

// Backward implements Layer.
func (l *SAGELayer) Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix) *tensor.Matrix {
	return l.backward(pool, adj, dOut, true)
}

// backward accumulates the parameter gradients and, when wantDX, returns
// the input gradient (nil otherwise).
func (l *SAGELayer) backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantDX bool) *tensor.Matrix {
	dZ := paramBackward(pool, l.bufs, l.Weight, l.Bias, l.Relu, l.concat, l.out, dOut, &l.db)
	if !wantDX {
		releaseDZ(l.bufs, dZ, dOut)
		return nil
	}
	// Input gradient through the concat.
	numDst := adj.NumDst()
	dConcat := l.bufs.Get(numDst, 2*l.InDim)
	tensor.MatMulBT(pool, dConcat, dZ, l.Weight.W)
	releaseDZ(l.bufs, dZ, dOut)
	dX := l.bufs.Get(adj.NumSrc(), l.InDim)
	in := l.InDim
	// Self half maps straight onto the dst prefix; the neighbour half
	// scatter-adds through the mean. The scatter runs serially because
	// multiple destinations may share a source row.
	for i := 0; i < numDst; i++ {
		dRow := dConcat.Row(i)
		self := dX.Row(i)
		for k := 0; k < in; k++ {
			self[k] += dRow[k]
		}
		nbrs := adj.Neighbors(i)
		if len(nbrs) == 0 {
			continue
		}
		invDeg := float32(1) / float32(len(nbrs))
		dAgg := dRow[in:]
		for _, j := range nbrs {
			dst := dX.Row(int(j))
			for k, v := range dAgg {
				dst[k] += v * invDeg
			}
		}
	}
	l.bufs.Put(dConcat)
	return dX
}

// GCNLayer implements the graph convolutional layer (paper Eq. 1 and 3)
// with the standard self-loop-augmented symmetric normalisation:
//
//	a_v = Σ_{u∈N(v)} h_u / sqrt((D(v)+1)(D(u)+1)) + h_v / (D(v)+1)
//	h'_v = ReLU(a_v·W + b)
//
// D are *global* graph degrees (supplied at construction), matching how
// sampled-GCN implementations normalise: the sampled block is an unbiased
// structural sample but the normalisation constants come from the graph.
type GCNLayer struct {
	InDim, OutDim int
	Relu          bool
	Weight        *Param
	Bias          *Param
	InvSqrtDeg    []float32 // 1/sqrt(D(v)+1) indexed by global node ID

	bufs *tensor.BufPool
	db   []float32

	x   *tensor.Matrix
	agg *tensor.Matrix
	out *tensor.Matrix
}

// NewGCNLayer constructs a GCN layer. degrees must hold the global degree
// of every node in the training graph.
func NewGCNLayer(rng *rand.Rand, inDim, outDim int, relu bool, degrees []int) *GCNLayer {
	l := &GCNLayer{
		InDim: inDim, OutDim: outDim, Relu: relu,
		Weight:     NewParam("gcn.weight", inDim, outDim),
		Bias:       NewParam("gcn.bias", 1, outDim),
		InvSqrtDeg: make([]float32, len(degrees)),
	}
	for v, d := range degrees {
		l.InvSqrtDeg[v] = float32(1 / math.Sqrt(float64(d)+1))
	}
	XavierUniform(rng, l.Weight)
	return l
}

// Params implements Layer.
func (l *GCNLayer) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *GCNLayer) setBufPool(bp *tensor.BufPool) { l.bufs = bp }

// checkAdj validates that every global node id the batch references is
// covered by the normalisation table, so a model built for a smaller
// graph fails with a diagnosable error instead of an index-out-of-range
// panic deep inside the aggregation kernel. The scan is O(numSrc) — the
// same order as the gather that built the batch — and covers the dst
// prefix too (destinations are a prefix of the sources by the Adj
// contract).
func (l *GCNLayer) checkAdj(adj Adj) {
	n := len(l.InvSqrtDeg)
	for j, numSrc := 0, adj.NumSrc(); j < numSrc; j++ {
		if id := int(adj.SrcGlobal(j)); id < 0 || id >= n {
			panic(fmt.Sprintf("nn: GCN normalisation table covers %d global nodes but the batch references node %d; the model was constructed with degrees for a smaller graph than it is being run on", n, id))
		}
	}
}

// aggRow fills row (width InDim, zeroed) with destination i's normalised
// self + neighbour sum.
func (l *GCNLayer) aggRow(row []float32, adj Adj, x *tensor.Matrix, i int) {
	ci := l.InvSqrtDeg[adj.DstGlobal(i)]
	// Self term: h_v/(D(v)+1) = c_v · c_v · h_v.
	self := x.Row(i)
	cSelf := ci * ci
	for k, v := range self {
		row[k] = v * cSelf
	}
	for _, j := range adj.Neighbors(i) {
		c := ci * l.InvSqrtDeg[adj.SrcGlobal(int(j))]
		src := x.Row(int(j))
		for k, v := range src {
			row[k] += v * c
		}
	}
}

// Forward implements Layer.
func (l *GCNLayer) Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	l.checkAdj(adj)
	numDst := adj.NumDst()
	l.x = x
	l.bufs.Put(l.agg)
	l.bufs.Put(l.out)
	l.agg = l.bufs.Get(numDst, l.InDim)
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.aggRow(l.agg.Row(i), adj, x, i)
		}
	})
	l.out = l.bufs.Get(numDst, l.OutDim)
	tensor.MatMul(pool, l.out, l.agg, l.Weight.W)
	tensor.AddRowVector(l.out, l.Bias.W.Data)
	if l.Relu {
		tensor.ReLU(l.out, l.out)
	}
	return l.out
}

// Infer implements Layer (fused, forward-only; see SAGELayer.Infer).
func (l *GCNLayer) Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	l.checkAdj(adj)
	numDst := adj.NumDst()
	out := l.bufs.Get(numDst, l.OutDim)
	w, bias := l.Weight.W, l.Bias.W.Data
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		scratch := l.bufs.Get(1, l.InDim)
		row := scratch.Data
		for i := lo; i < hi; i++ {
			l.aggRow(row, adj, x, i)
			dr := out.Row(i)
			denseRowMulAdd(dr, row, w, bias)
			if l.Relu {
				reluRowInPlace(dr)
			}
		}
		l.bufs.Put(scratch)
	})
	return out
}

// Backward implements Layer.
func (l *GCNLayer) Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix) *tensor.Matrix {
	return l.backward(pool, adj, dOut, true)
}

// backward accumulates the parameter gradients and, when wantDX, returns
// the input gradient (nil otherwise).
func (l *GCNLayer) backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantDX bool) *tensor.Matrix {
	dZ := paramBackward(pool, l.bufs, l.Weight, l.Bias, l.Relu, l.agg, l.out, dOut, &l.db)
	if !wantDX {
		releaseDZ(l.bufs, dZ, dOut)
		return nil
	}
	numDst := adj.NumDst()
	dAgg := l.bufs.Get(numDst, l.InDim)
	tensor.MatMulBT(pool, dAgg, dZ, l.Weight.W)
	releaseDZ(l.bufs, dZ, dOut)
	dX := l.bufs.Get(adj.NumSrc(), l.InDim)
	for i := 0; i < numDst; i++ {
		ci := l.InvSqrtDeg[adj.DstGlobal(i)]
		dRow := dAgg.Row(i)
		self := dX.Row(i)
		cSelf := ci * ci
		for k, v := range dRow {
			self[k] += v * cSelf
		}
		for _, j := range adj.Neighbors(i) {
			c := ci * l.InvSqrtDeg[adj.SrcGlobal(int(j))]
			dst := dX.Row(int(j))
			for k, v := range dRow {
				dst[k] += v * c
			}
		}
	}
	l.bufs.Put(dAgg)
	return dX
}
