package engine

import (
	"fmt"
	"runtime"
	"testing"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// runLocalRegime trains epochs under the partition-local regime over
// the given transport and returns the per-epoch results plus the
// exchange totals.
func runLocalRegime(t *testing.T, ds *graph.Dataset, transport string, epochs int) ([]EpochResult, ddp.HaloStats) {
	t.Helper()
	return runLocalRegimeHook(t, ds, transport, epochs, nil)
}

// runLocalRegimeHook is runLocalRegime with hook (when non-nil) applied
// to the engine before its first epoch.
func runLocalRegimeHook(t *testing.T, ds *graph.Dataset, transport string, epochs int, hook func(*Engine)) ([]EpochResult, ddp.HaloStats) {
	t.Helper()
	const numProcs = 2
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	sources, ex, err := NewShardSourcesOpts(ss, numProcs, ShardSourceOptions{Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	setup, err := NewPartitionSetup(ss, skel, numProcs, []int{5, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = sources
	cfg.SamplingRegime = RegimeLocal
	cfg.LocalSamplers = setup.Samplers
	cfg.LocalTargets = setup.Targets
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		hook(e)
	}
	var out []EpochResult
	for ep := 0; ep < epochs; ep++ {
		res, err := e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out, ex.TotalStats()
}

// TestPartitionSetupCoversTrainSplit: per-replica targets partition the
// train split, and every target is allowed by its replica's sampler.
func TestPartitionSetupCoversTrainSplit(t *testing.T) {
	ds := shardedTestDataset(t)
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	setup, err := NewPartitionSetup(ss, skel, 2, []int{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[graph.NodeID]bool{}
	for r, targets := range setup.Targets {
		ps := setup.Samplers[r].(*sampler.Partition)
		for _, v := range targets {
			if seen[v] {
				t.Fatalf("train node %d assigned to two replicas", v)
			}
			seen[v] = true
			if !ps.Allowed(v) {
				t.Fatalf("replica %d target %d outside its allowed set", r, v)
			}
		}
		total += len(targets)
	}
	if total != len(skel.TrainIdx) {
		t.Fatalf("replica targets cover %d of %d train nodes", total, len(skel.TrainIdx))
	}
}

// TestLocalRegimeTransportParity: the local regime's loss history and
// reverse-gradient digest are bit-identical between the inproc and tcp
// transports — the fp32 wire carries exact bits and the collect path
// reduces contributors in a fixed order, so nothing may depend on
// message timing.
func TestLocalRegimeTransportParity(t *testing.T) {
	ds := shardedTestDataset(t)
	const epochs = 3
	inproc, inStats := runLocalRegime(t, ds, "inproc", epochs)
	tcp, tcpStats := runLocalRegime(t, ds, "tcp", epochs)
	for ep := 0; ep < epochs; ep++ {
		if inproc[ep].MeanLoss != tcp[ep].MeanLoss {
			t.Fatalf("epoch %d: loss diverged across transports: %v vs %v", ep, inproc[ep].MeanLoss, tcp[ep].MeanLoss)
		}
		if inproc[ep].GradAbsSum != tcp[ep].GradAbsSum || inproc[ep].GradNodes != tcp[ep].GradNodes {
			t.Fatalf("epoch %d: gradient digest diverged: (%v, %d) vs (%v, %d)",
				ep, inproc[ep].GradAbsSum, inproc[ep].GradNodes, tcp[ep].GradAbsSum, tcp[ep].GradNodes)
		}
		if inproc[ep].GradNodes == 0 || inproc[ep].GradAbsSum == 0 {
			t.Fatalf("epoch %d: no gradient flow recorded under the local regime", ep)
		}
	}
	// Identical logical traffic; the wire framing differs by transport
	// but the halo gradient rows routed must match.
	if inStats.GradRows != tcpStats.GradRows || inStats.RemoteRows != tcpStats.RemoteRows {
		t.Fatalf("transports moved different logical traffic: %+v vs %+v", inStats, tcpStats)
	}
	if inStats.GradRows == 0 {
		t.Fatal("no halo gradient rows routed (boundary rows never learned)")
	}
}

// TestLocalRegimeDeterministic: two runs with the same seed are
// bit-identical (losses and gradient digest).
func TestLocalRegimeDeterministic(t *testing.T) {
	ds := shardedTestDataset(t)
	a, _ := runLocalRegime(t, ds, "inproc", 2)
	b, _ := runLocalRegime(t, ds, "inproc", 2)
	for ep := range a {
		if a[ep].MeanLoss != b[ep].MeanLoss || a[ep].GradAbsSum != b[ep].GradAbsSum {
			t.Fatalf("epoch %d not reproducible: (%v, %v) vs (%v, %v)",
				ep, a[ep].MeanLoss, a[ep].GradAbsSum, b[ep].MeanLoss, b[ep].GradAbsSum)
		}
	}
}

// TestLocalRegimeCutsRemoteFeatureTraffic: on the same shard set the
// partition-local regime fetches fewer remote feature rows than the
// exact regime — the point of the whole exercise. (Total remote rows
// include the gradient backhaul the exact regime doesn't pay; the
// feature direction alone must still shrink.)
func TestLocalRegimeCutsRemoteFeatureTraffic(t *testing.T) {
	ds := shardedTestDataset(t)
	const numProcs, epochs = 2, 2

	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	sources, ex, err := NewShardSources(ss, numProcs)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = sources
	exact, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < epochs; ep++ {
		if res, err := exact.RunEpoch(ep); err != nil {
			t.Fatal(err)
		} else if res.GradNodes != 0 || res.GradAbsSum != 0 {
			t.Fatalf("exact regime reported gradient routing: %+v", res)
		}
	}
	exactStats := ex.TotalStats()

	_, localStats := runLocalRegime(t, ds, "inproc", epochs)
	localFeatureRows := localStats.RemoteRows
	if localFeatureRows >= exactStats.RemoteRows {
		t.Fatalf("local regime fetched %d remote rows, exact %d — no locality win",
			localFeatureRows, exactStats.RemoteRows)
	}
	if localStats.RemoteRows == 0 {
		t.Fatal("local regime fetched no remote rows at all (halo never touched — suspicious for K=3 on 2 replicas)")
	}
}

// shapeCheckRouter forwards to the replica's real router after checking
// that every batch hands it a full input-feature gradient: one row per
// input node, featDim columns.
type shapeCheckRouter struct {
	inner   GradientRouter
	featDim int
	calls   int
	err     error
}

func (r *shapeCheckRouter) ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error {
	r.calls++
	if r.err == nil {
		switch {
		case len(ids) == 0:
			r.err = fmt.Errorf("call %d: no input ids", r.calls)
		case grads == nil:
			r.err = fmt.Errorf("call %d: nil input gradient", r.calls)
		case grads.Rows != len(ids) || grads.Cols != r.featDim:
			r.err = fmt.Errorf("call %d: input gradient %dx%d for %d ids, want %dx%d",
				r.calls, grads.Rows, grads.Cols, len(ids), len(ids), r.featDim)
		}
	}
	return r.inner.ScatterGradients(ids, grads)
}

// TestLocalRegimeRoutesFullInputGradient: the exact regime's step skips
// the layer-0 input gradient (nn.GNN.BackwardParams), but the local
// regime must still compute it and hand it to its router: numSrc₀×F0
// for every batch, with the reverse-gradient digest unchanged. The
// digest is pinned to the values the full-backward step produced before
// the params-only path existed; the pin is exact on amd64, where every
// kernel is FMA-free, and other targets may fuse the scatter's
// multiply-adds.
func TestLocalRegimeRoutesFullInputGradient(t *testing.T) {
	ds := shardedTestDataset(t)
	var routers []*shapeCheckRouter
	res, _ := runLocalRegimeHook(t, ds, "inproc", 2, func(e *Engine) {
		for _, rep := range e.replicas {
			r := &shapeCheckRouter{inner: rep.router, featDim: ds.Features.Cols}
			rep.router = r
			routers = append(routers, r)
		}
	})
	for i, r := range routers {
		if r.err != nil {
			t.Fatalf("replica %d router: %v", i, r.err)
		}
		if r.calls == 0 {
			t.Fatalf("replica %d router never received a gradient", i)
		}
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	want := []struct {
		nodes  int64
		absSum float64
		loss   float64
	}{
		{234, 7.203885407094276, 1.1114989606108405},
		{233, 6.6330317824280485, 0.9477427315136374},
	}
	for ep, w := range want {
		if res[ep].GradNodes != w.nodes || res[ep].GradAbsSum != w.absSum || res[ep].MeanLoss != w.loss {
			t.Fatalf("epoch %d: (GradNodes, GradAbsSum, MeanLoss) = (%d, %v, %v), want (%d, %v, %v)",
				ep, res[ep].GradNodes, res[ep].GradAbsSum, res[ep].MeanLoss, w.nodes, w.absSum, w.loss)
		}
	}
}
