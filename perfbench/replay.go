package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// replayResult holds per-batch timings (ms) of recorded batches replayed
// through the nn layers one call at a time, plus the mean loss the
// replay produced.
type replayResult struct {
	fwd, bwd                   [][]float64 // [layer][batch]
	gather, loss, adam         []float64
	allreduce                  []float64 // per iteration
	compute                    []float64 // fwd+loss+bwd+adam per batch
	iteration                  []float64 // an engine iteration's critical path, see replayTrain
	gflop                      []float64 // dense GFLOP per batch, from shapes
	inputRows                  []float64
	meanLoss                   float64
	matmul, matmulBT, matmulAT float64 // achieved GFLOP/s per kernel
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// replayTrain replays batches as training iterations of `replicas`
// lock-stepped models built from spec: each iteration takes the next
// `replicas` batches (one per replica), runs layer-by-layer forward,
// the pooled softmax cross-entropy and layer-by-layer backward, then
// the weighted all-reduce and one Adam step per replica — the same calls
// in the same order as the engine's training step, so a one-replica
// replay of an epoch's batches reproduces its mean loss bit for bit.
// An iteration's critical path is what the engine spends on it when its
// data is ready: the slowest replica's forward, loss and backward (the
// replicas run side by side), then the all-reduce and every replica's
// Adam step, which run one after another.
func replayTrain(spec nn.ModelSpec, degrees []int, lr float64, ds *graph.Dataset, batches []*sampler.MiniBatch, replicas, workers int) (replayResult, error) {
	var res replayResult
	models := make([]*nn.GNN, replicas)
	opts := make([]*nn.Adam, replicas)
	sets := make([][]*nn.Param, replicas)
	for r := range models {
		m, err := nn.NewModel(spec, degrees)
		if err != nil {
			return res, err
		}
		models[r], opts[r], sets[r] = m, nn.NewAdam(lr), m.Params()
	}
	L := len(spec.Dims) - 1
	res.fwd, res.bwd = make([][]float64, L), make([][]float64, L)
	pool := tensor.NewPool(workers)
	weights := make([]float64, replicas)
	var lossSum float64
	var lossCount int
	for lo := 0; lo < len(batches); lo += replicas {
		for r := range weights {
			weights[r] = 0
		}
		n := min(replicas, len(batches)-lo) // replicas with a batch this iteration
		slowest := 0.0
		for r := 0; r < n; r++ {
			mb, m := batches[lo+r], models[r]
			bufs := m.Buffers()
			m.ZeroGrad()
			t := time.Now()
			x0 := nn.GatherPooled(bufs, ds.Features, mb.InputNodes())
			labels := make([]int32, len(mb.Targets))
			for i, v := range mb.Targets {
				labels[i] = ds.Labels[v]
			}
			res.gather = append(res.gather, msSince(t))
			res.inputRows = append(res.inputRows, float64(len(mb.InputNodes())))
			compute := 0.0
			x := x0
			for li, l := range m.Layers {
				t := time.Now()
				x = l.Forward(pool, nn.BlockAdj{B: &mb.Blocks[li]}, x)
				d := msSince(t)
				res.fwd[li] = append(res.fwd[li], d)
				compute += d
			}
			t = time.Now()
			loss, dLogits := nn.SoftmaxCrossEntropyPooled(bufs, x, labels)
			d := msSince(t)
			res.loss = append(res.loss, d)
			compute += d
			grad := dLogits
			for li := L - 1; li >= 0; li-- {
				t := time.Now()
				next := m.Layers[li].Backward(pool, nn.BlockAdj{B: &mb.Blocks[li]}, grad)
				d := msSince(t)
				res.bwd[li] = append(res.bwd[li], d)
				compute += d
				if grad != dLogits {
					bufs.Put(grad)
				}
				grad = next
			}
			bufs.Put(grad)
			bufs.Put(dLogits)
			bufs.Put(x0)
			res.compute = append(res.compute, compute)
			slowest = math.Max(slowest, compute)
			res.gflop = append(res.gflop, trainFlops(m, mb)/1e9)
			weights[r] = float64(len(mb.Targets))
			lossSum += loss * weights[r]
			lossCount += len(mb.Targets)
		}
		t := time.Now()
		if err := ddp.AllReduceMeanWeighted(sets, weights); err != nil {
			return res, err
		}
		reduce := msSince(t)
		res.allreduce = append(res.allreduce, reduce)
		iteration := slowest + reduce
		for r := range models {
			t := time.Now()
			opts[r].Step(sets[r])
			d := msSince(t)
			res.adam = append(res.adam, d)
			iteration += d
			if r < n {
				res.compute[len(res.compute)-n+r] += d
			}
		}
		res.iteration = append(res.iteration, iteration)
	}
	if lossCount > 0 {
		res.meanLoss = lossSum / float64(lossCount)
	}
	var err error
	res.matmul, res.matmulBT, res.matmulAT, err = gemmRates(models[0], batches, workers)
	return res, err
}

// layerShape is one layer's dense multiply for a batch: an m×k
// activation times the layer's k×n weight.
type layerShape struct{ m, k, n int }

func shapes(m *nn.GNN, mb *sampler.MiniBatch) []layerShape {
	out := make([]layerShape, len(m.Layers))
	for li, l := range m.Layers {
		w := l.Params()[0].W
		out[li] = layerShape{mb.Blocks[li].NumDst, w.Rows, w.Cols}
	}
	return out
}

// trainFlops counts a training step's dense multiply-adds from the
// batch's shapes: per layer the forward MatMul and the backward
// MatMulAT (weight gradient) and MatMulBT (input gradient), 2·m·k·n
// each.
func trainFlops(m *nn.GNN, mb *sampler.MiniBatch) float64 {
	f := 0.0
	for _, s := range shapes(m, mb) {
		f += 3 * 2 * float64(s.m) * float64(s.k) * float64(s.n)
	}
	return f
}

// gemmRates times tensor.MatMul, MatMulBT and MatMulAT on dense random
// operands with the shapes the batches produce, and returns each
// kernel's achieved GFLOP/s.
func gemmRates(m *nn.GNN, batches []*sampler.MiniBatch, workers int) (mm, bt, at float64, err error) {
	if len(batches) == 0 {
		return 0, 0, 0, fmt.Errorf("no batches to replay")
	}
	pool := tensor.NewPool(workers)
	rng := rand.New(rand.NewSource(1))
	fill := func(rows, cols int) *tensor.Matrix {
		x := tensor.New(rows, cols)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		return x
	}
	var flops, tMM, tBT, tAT float64
	for _, mb := range batches {
		for _, s := range shapes(m, mb) {
			act, w, grad := fill(s.m, s.k), fill(s.k, s.n), fill(s.m, s.n)
			out, dAct, dW := tensor.New(s.m, s.n), tensor.New(s.m, s.k), tensor.New(s.k, s.n)
			t := time.Now()
			tensor.MatMul(pool, out, act, w)
			tMM += time.Since(t).Seconds()
			t = time.Now()
			tensor.MatMulBT(pool, dAct, grad, w)
			tBT += time.Since(t).Seconds()
			t = time.Now()
			tensor.MatMulAT(pool, dW, act, grad)
			tAT += time.Since(t).Seconds()
			flops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
		}
	}
	return flops / tMM / 1e9, flops / tBT / 1e9, flops / tAT / 1e9, nil
}

// inferResult holds per-batch timings (ms) of serving batches replayed
// through the full-neighbour gather and the fused inference pass.
type inferResult struct {
	gatherMs, inferMs, inputRows, gflop []float64
	layer                               [][]float64
}

// replayInfer replays coalesced serving batches: the deterministic
// full-neighbour gather (sampler.FullNeighbor), the feature rows, and
// nn.Layer.Infer layer by layer (what GNN.Infer runs).
func replayInfer(m *nn.GNN, g *graph.CSR, feats *tensor.Matrix, batches [][]graph.NodeID) inferResult {
	res := inferResult{layer: make([][]float64, len(m.Layers))}
	gather := sampler.NewFullNeighbor(g, m.NumLayers())
	pool := tensor.NewPool(1)
	bufs := m.Buffers()
	for _, nodes := range batches {
		t := time.Now()
		mb := gather.Sample(nil, nodes)
		res.gatherMs = append(res.gatherMs, msSince(t))
		x0 := nn.GatherPooled(bufs, feats, mb.InputNodes())
		res.inputRows = append(res.inputRows, float64(len(mb.InputNodes())))
		x, total, flop := x0, 0.0, 0.0
		for li, l := range m.Layers {
			t := time.Now()
			next := l.Infer(pool, nn.BlockAdj{B: &mb.Blocks[li]}, x)
			d := msSince(t)
			res.layer[li] = append(res.layer[li], d)
			total += d
			if x != x0 {
				bufs.Put(x)
			}
			x = next
		}
		for _, s := range shapes(m, mb) {
			flop += 2 * float64(s.m) * float64(s.k) * float64(s.n)
		}
		bufs.Put(x)
		bufs.Put(x0)
		res.inferMs = append(res.inferMs, total)
		res.gflop = append(res.gflop, flop/1e9)
	}
	return res
}

// finite reports whether every loss is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
