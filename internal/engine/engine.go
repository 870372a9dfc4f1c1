package engine

import (
	"fmt"
	"sync"
	"time"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// Config describes one training run. NumProcs, SampleWorkers and
// TrainWorkers are ARGO's three parallelisation parameters (n, s, t).
type Config struct {
	Dataset *graph.Dataset
	Sampler sampler.Sampler
	Model   nn.ModelSpec
	// BatchSize is the GLOBAL mini-batch size B. Each of the NumProcs
	// replicas trains on ≈B/NumProcs targets per iteration, preserving
	// the algorithm's effective batch size (paper §IV-B2).
	BatchSize     int
	LR            float64
	NumProcs      int
	SampleWorkers int // sampling cores per process (s)
	TrainWorkers  int // training cores per process (t)
	Seed          int64
	// AdjustBatch mirrors the Multi-Process Engine's batch-size
	// adjustment. It defaults to true via New; setting it false after New
	// reproduces the semantics-breaking naive-DDP ablation, where every
	// process trains on a full-size batch from its own partition
	// (effective batch n·B).
	AdjustBatch bool
	// Sources, when non-nil, supplies each replica's feature/label
	// source (len must equal NumProcs) — the shard-aware training path,
	// where Dataset carries only topology, splits, spec, and class
	// count, and every feature/label lookup goes through the replica's
	// source (NewShardSources). Nil means every replica reads the
	// materialised Dataset directly.
	Sources []DataSource
	// NoOverlap disables the exchange/sampling overlap: features and
	// labels are then gathered inside the training step instead of on
	// the sampling workers (where the halo fetch for batch i+1 runs
	// while batch i computes). The knob is performance-only — gathered
	// values are pure functions of the batch's ids, so losses are
	// bit-identical either way.
	NoOverlap bool
	// SamplingRegime selects exact (default: global batches split n
	// ways, bit-identical to single-store) or partition-local sampling.
	// The local regime requires Sources plus the per-replica Samplers
	// and Targets from NewPartitionSetup; Sampler stays the exact
	// sampler and keeps serving Evaluate, so accuracy numbers compare
	// apples-to-apples across regimes.
	SamplingRegime SamplingRegime
	// LocalSamplers[r] is replica r's partition-bounded sampler (local
	// regime only; len must equal NumProcs).
	LocalSamplers []sampler.Sampler
	// LocalTargets[r] is replica r's owned train targets (local regime
	// only; len must equal NumProcs).
	LocalTargets [][]graph.NodeID
}

// EpochResult summarises one training epoch.
type EpochResult struct {
	Epoch     int
	MeanLoss  float64
	Duration  time.Duration
	Stats     sampler.Stats // accumulated sampling workload
	NumIters  int
	BatchSeen int // total target nodes processed
	// GradNodes and GradAbsSum summarise the local regime's reverse
	// gradient path: the number of owned rows that received routed
	// input-feature gradient contributions this epoch, and the L1 mass
	// of those contributions. Both are deterministic for a fixed
	// schedule (ids ascending, contributors reduced in ascending
	// replica order), so they double as a cross-transport parity
	// digest. Zero under the exact regime.
	GradNodes  int64
	GradAbsSum float64
}

// replica is one "GNN process": its own model, optimizer, worker pools,
// and data source (the global dataset, or its mapped shards).
type replica struct {
	model     *nn.GNN
	opt       *nn.Adam
	trainPool *tensor.Pool
	source    DataSource
	// router, when non-nil (local regime over shard sources), receives
	// the input-feature gradient of every batch so halo rows' credit
	// reaches their owning replica.
	router GradientRouter

	// per-iteration scratch, written by the replica's goroutine only
	lastLoss  float64
	lastCount int
	lastStats sampler.Stats
	lastErr   error
}

// Engine trains a GNN with n synchronized replicas. It is the substrate
// both the library baseline (n=1) and ARGO's Multi-Process Engine run on.
type Engine struct {
	cfg      Config
	replicas []*replica

	// BatchHook, when non-nil, runs after every global iteration (all
	// replicas synced). Experiments use it to trace convergence curves.
	BatchHook func(iteration int)

	iterCount int // global iterations since construction
}

// New validates cfg, builds the replicas (bit-identical initial weights),
// and returns the engine. AdjustBatch is forced on; tests that need the
// ablation flip it explicitly afterwards.
func New(cfg Config) (*Engine, error) {
	if cfg.Dataset == nil || cfg.Sampler == nil {
		return nil, fmt.Errorf("engine: dataset and sampler are required")
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("engine: batch size %d", cfg.BatchSize)
	}
	if cfg.NumProcs < 1 {
		return nil, fmt.Errorf("engine: NumProcs %d", cfg.NumProcs)
	}
	if cfg.SampleWorkers < 1 || cfg.TrainWorkers < 1 {
		return nil, fmt.Errorf("engine: worker counts must be ≥1, got s=%d t=%d", cfg.SampleWorkers, cfg.TrainWorkers)
	}
	if cfg.Model.Kind == "" {
		return nil, fmt.Errorf("engine: model spec required")
	}
	if cfg.Sources != nil && len(cfg.Sources) != cfg.NumProcs {
		return nil, fmt.Errorf("engine: %d sources for %d replicas", len(cfg.Sources), cfg.NumProcs)
	}
	if cfg.Sources == nil && (cfg.Dataset.Features == nil || cfg.Dataset.Labels == nil) {
		return nil, fmt.Errorf("engine: dataset has no features/labels and no replica sources were provided")
	}
	if cfg.SamplingRegime == RegimeLocal {
		if cfg.Sources == nil {
			return nil, fmt.Errorf("engine: the local sampling regime needs per-replica shard sources")
		}
		if len(cfg.LocalSamplers) != cfg.NumProcs || len(cfg.LocalTargets) != cfg.NumProcs {
			return nil, fmt.Errorf("engine: local regime wants %d samplers and target sets, got %d and %d",
				cfg.NumProcs, len(cfg.LocalSamplers), len(cfg.LocalTargets))
		}
	}
	cfg.AdjustBatch = true
	e := &Engine{cfg: cfg}
	degrees := nn.Degrees(cfg.Dataset.Graph)
	for r := 0; r < cfg.NumProcs; r++ {
		m, err := nn.NewModel(cfg.Model, degrees)
		if err != nil {
			return nil, err
		}
		// The default source draws gathered batches from the replica's
		// own buffer pool; step puts them back once consumed, closing
		// the recycle loop.
		src := DataSource(datasetSource{ds: cfg.Dataset, bufs: m.Buffers()})
		if cfg.Sources != nil {
			src = cfg.Sources[r]
		}
		rep := &replica{
			model:     m,
			opt:       nn.NewAdam(cfg.LR),
			trainPool: tensor.NewPool(cfg.TrainWorkers),
			source:    src,
		}
		if cfg.SamplingRegime == RegimeLocal {
			if _, ok := src.(GradientRouter); !ok {
				return nil, fmt.Errorf("engine: local regime replica %d source has no gradient reverse path", r)
			}
			// The caching wrapper makes the regime's locality pay:
			// partition-bounded batches hit a static working set, so
			// features cross the wire once per run and gradients once
			// per epoch.
			ls := newLocalSource(src)
			rep.source = ls
			rep.router = ls
		}
		e.replicas = append(e.replicas, rep)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetAdjustBatch toggles the batch-size adjustment (see Config).
func (e *Engine) SetAdjustBatch(v bool) { e.cfg.AdjustBatch = v }

// Model returns replica r's model (replicas stay identical; tests verify).
func (e *Engine) Model(r int) *nn.GNN { return e.replicas[r].model }

// ParamSets exposes every replica's parameters, for consistency checks.
func (e *Engine) ParamSets() [][]*nn.Param {
	sets := make([][]*nn.Param, len(e.replicas))
	for r, rep := range e.replicas {
		sets[r] = rep.model.Params()
	}
	return sets
}

// RunEpoch trains one epoch and returns its summary.
func (e *Engine) RunEpoch(epoch int) (EpochResult, error) {
	start := time.Now()
	n := e.cfg.NumProcs
	ds := e.cfg.Dataset

	// Build per-replica job lists. With AdjustBatch each iteration is one
	// global batch split n ways; without it (ablation) each replica
	// consumes full-size batches from its own partition. The local
	// regime shuffles each replica's owned targets independently into
	// B/n-sized shares, preserving the effective global batch ≈ B.
	perReplicaJobs := make([][]prefetchJob, n)
	var numIters int
	if e.cfg.SamplingRegime == RegimeLocal {
		share := e.cfg.BatchSize / n
		if share < 1 {
			share = 1
		}
		for r := 0; r < n; r++ {
			batches := epochBatches(e.cfg.LocalTargets[r], share, seedFor(e.cfg.Seed, epoch, -2-r))
			for it, b := range batches {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{
					index: it, seed: seedFor(e.cfg.Seed, epoch, it*n+r), targets: b,
				})
			}
			if len(batches) > numIters {
				numIters = len(batches)
			}
		}
		// Shards own unequal train counts; pad the short replicas with
		// empty jobs (weight 0 in the all-reduce) to keep the barrier
		// square.
		for r := 0; r < n; r++ {
			for len(perReplicaJobs[r]) < numIters {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{index: len(perReplicaJobs[r])})
			}
		}
	} else if e.cfg.AdjustBatch {
		globalBatches := epochBatches(ds.TrainIdx, e.cfg.BatchSize, seedFor(e.cfg.Seed, epoch, -1))
		numIters = len(globalBatches)
		for it, gb := range globalBatches {
			shares := splitShares(gb, n)
			for r := 0; r < n; r++ {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{
					index:   it,
					seed:    seedFor(e.cfg.Seed, epoch, it*n+r),
					targets: shares[r],
				})
			}
		}
	} else {
		parts := make([][]graph.NodeID, n)
		for i, v := range ds.TrainIdx {
			parts[i%n] = append(parts[i%n], v)
		}
		for r := 0; r < n; r++ {
			batches := epochBatches(parts[r], e.cfg.BatchSize, seedFor(e.cfg.Seed, epoch, -2-r))
			for it, b := range batches {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{
					index: it, seed: seedFor(e.cfg.Seed, epoch, it*n+r), targets: b,
				})
				if it+1 > numIters {
					numIters = it + 1
				}
			}
		}
		// Pad shorter replicas with empty jobs so the barrier stays square.
		for r := 0; r < n; r++ {
			for len(perReplicaJobs[r]) < numIters {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{index: len(perReplicaJobs[r])})
			}
		}
	}

	prefetchers := make([]*prefetcher, n)
	for r := 0; r < n; r++ {
		var fetch fetchFunc
		if !e.cfg.NoOverlap {
			src := e.replicas[r].source
			fetch = func(mb *sampler.MiniBatch) (*tensor.Matrix, []int32, error) {
				x0, err := src.GatherFeatures(mb.InputNodes())
				if err != nil {
					return nil, nil, err
				}
				labels, err := src.TargetLabels(mb.Targets)
				if err != nil {
					return nil, nil, err
				}
				return x0, labels, nil
			}
		}
		samp := e.cfg.Sampler
		if e.cfg.SamplingRegime == RegimeLocal {
			samp = e.cfg.LocalSamplers[r]
		}
		prefetchers[r] = newFetchingPrefetcher(samp, perReplicaJobs[r], e.cfg.SampleWorkers, fetch)
	}
	// Closing on every exit path matters: an epoch aborted by a replica
	// (or remote-fetch) error must not strand workers parked on the
	// reorder buffer.
	defer func() {
		for r := 0; r < n; r++ {
			prefetchers[r].Close()
		}
	}()

	res := EpochResult{Epoch: epoch, NumIters: numIters}
	var lossSum float64
	var lossCount int
	sets := e.ParamSets()
	weights := make([]float64, n)

	for it := 0; it < numIters; it++ {
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				e.replicas[r].step(prefetchers[r].NextData())
			}(r)
		}
		wg.Wait()
		anyWork := false
		for r := 0; r < n; r++ {
			rep := e.replicas[r]
			if rep.lastErr != nil {
				return res, fmt.Errorf("engine: replica %d: %w", r, rep.lastErr)
			}
			weights[r] = float64(rep.lastCount)
			if rep.lastCount > 0 {
				anyWork = true
				lossSum += rep.lastLoss * float64(rep.lastCount)
				lossCount += rep.lastCount
				res.BatchSeen += rep.lastCount
				res.Stats.Accumulate(rep.lastStats)
			}
		}
		if anyWork {
			if err := ddp.AllReduceMeanWeighted(sets, weights); err != nil {
				return res, err
			}
			for r := 0; r < n; r++ {
				e.replicas[r].opt.Step(sets[r])
			}
		}
		e.iterCount++
		if e.BatchHook != nil {
			e.BatchHook(e.iterCount)
		}
	}
	// Local regime: the epoch's accumulated input-feature gradients are
	// flushed to their owning replicas — every replica flushes before
	// any drains, so each drain sees the complete epoch — and drained
	// in a fixed order (replica ascending, ids ascending, contributors
	// ascending), making the digest deterministic across transports.
	// Features are frozen inputs here, so the collected sums serve as
	// an accounting/parity digest; a trainable embedding layer would
	// apply them to its owned rows at this point.
	if e.cfg.SamplingRegime == RegimeLocal {
		for r := 0; r < n; r++ {
			if ls, ok := e.replicas[r].source.(*localSource); ok {
				if err := ls.FlushGradients(); err != nil {
					return res, fmt.Errorf("engine: replica %d gradient flush: %w", r, err)
				}
			}
		}
		for r := 0; r < n; r++ {
			c, ok := e.replicas[r].source.(GradientCollector)
			if !ok {
				continue
			}
			ids, sums, err := c.CollectGradients()
			if err != nil {
				return res, fmt.Errorf("engine: replica %d gradient drain: %w", r, err)
			}
			res.GradNodes += int64(len(ids))
			if sums != nil {
				for i := range ids {
					for _, x := range sums.Row(i) {
						if x < 0 {
							x = -x
						}
						res.GradAbsSum += float64(x)
					}
				}
			}
		}
	}
	if lossCount > 0 {
		res.MeanLoss = lossSum / float64(lossCount)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// step computes one replica's gradient contribution for a mini-batch,
// reading features and labels from the prefetched batch when the
// overlap gathered them ahead of time, or through the replica's data
// source otherwise. An empty share zeroes the gradients and reports
// weight 0.
func (rep *replica) step(bd batchData) {
	rep.model.ZeroGrad()
	rep.lastCount = 0
	rep.lastLoss = 0
	rep.lastStats = sampler.Stats{}
	rep.lastErr = nil
	mb := bd.mb
	if mb == nil || len(mb.Targets) == 0 {
		return
	}
	if bd.err != nil {
		rep.lastErr = bd.err
		return
	}
	x0, labels := bd.x0, bd.labels
	if x0 == nil {
		var err error
		x0, err = rep.source.GatherFeatures(mb.InputNodes())
		if err != nil {
			rep.lastErr = err
			return
		}
	}
	logits := rep.model.Forward(rep.trainPool, mb, x0)
	if labels == nil {
		var err error
		labels, err = rep.source.TargetLabels(mb.Targets)
		if err != nil {
			rep.lastErr = err
			return
		}
	}
	bufs := rep.model.Buffers()
	loss, dLogits := nn.SoftmaxCrossEntropyPooled(bufs, logits, labels)
	// Local regime: hand the input-feature gradient to the router. All
	// input ids are passed; the local-regime source accumulates the
	// rows across the epoch and flushes them to their owners in one
	// batched exchange at epoch end, so boundary rows' credit reaches
	// the replica that owns them at a per-epoch (not per-batch) wire
	// cost. Without a router nothing reads that gradient, so the step
	// computes parameter gradients only (BackwardParams).
	if rep.router != nil {
		dX := rep.model.Backward(rep.trainPool, dLogits)
		err := rep.router.ScatterGradients(mb.InputNodes(), dX)
		bufs.Put(dX)
		if err != nil {
			rep.lastErr = err
			return
		}
	} else {
		rep.model.BackwardParams(rep.trainPool, dLogits)
	}
	// The gathered features and logit gradient are consumed; recycling
	// them through the replica's buffer pool keeps the steady-state step
	// free of per-batch matrix allocations (DataSource matrices are
	// caller-owned by contract).
	bufs.Put(dLogits)
	bufs.Put(x0)
	rep.lastLoss = loss
	rep.lastCount = len(mb.Targets)
	rep.lastStats = mb.Stats
}

// ExportWeights returns a deep copy of replica 0's parameters, in the
// model's stable parameter order. The Multi-Process Engine uses this to
// carry weights across auto-tuner re-launches with a different process
// count.
func (e *Engine) ExportWeights() []*tensor.Matrix {
	params := e.replicas[0].model.Params()
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.W.Clone()
	}
	return out
}

// ImportWeights loads weights (as produced by ExportWeights) into every
// replica, keeping them bit-identical.
func (e *Engine) ImportWeights(ws []*tensor.Matrix) error {
	for _, rep := range e.replicas {
		params := rep.model.Params()
		if len(params) != len(ws) {
			return fmt.Errorf("engine: ImportWeights got %d tensors, model has %d params", len(ws), len(params))
		}
		for i, p := range params {
			if p.W.Rows != ws[i].Rows || p.W.Cols != ws[i].Cols {
				return fmt.Errorf("engine: ImportWeights param %d shape mismatch", i)
			}
			p.W.CopyFrom(ws[i])
		}
	}
	return nil
}

// Evaluate returns replica 0's accuracy on the given node IDs, sampling
// evaluation batches with a fixed seed so results are deterministic.
// Features and labels flow through replica 0's data source, so sharded
// and single-store runs evaluate identically.
func (e *Engine) Evaluate(ids []graph.NodeID) float64 {
	acc, err := e.EvaluateErr(ids)
	if err != nil {
		return 0
	}
	return acc
}

// EvaluateErr is Evaluate with source errors surfaced (a sharded source
// can fail on an unmapped node; the in-memory source cannot).
func (e *Engine) EvaluateErr(ids []graph.NodeID) (float64, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	const evalBatch = 256
	rep := e.replicas[0]
	correctWeighted := 0.0
	for lo := 0; lo < len(ids); lo += evalBatch {
		hi := lo + evalBatch
		if hi > len(ids) {
			hi = len(ids)
		}
		targets := ids[lo:hi]
		rng := newEvalRand(e.cfg.Seed, lo)
		mb := e.cfg.Sampler.Sample(rng, targets)
		x0, err := rep.source.GatherFeatures(mb.InputNodes())
		if err != nil {
			return 0, err
		}
		logits := rep.model.Forward(rep.trainPool, mb, x0)
		labels, err := rep.source.TargetLabels(targets)
		if err != nil {
			return 0, err
		}
		correctWeighted += nn.Accuracy(logits, labels) * float64(len(targets))
		rep.model.Buffers().Put(x0)
	}
	return correctWeighted / float64(len(ids)), nil
}
