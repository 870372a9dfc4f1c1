// Benchmarks: one per table and figure of the paper's evaluation section.
// Each benchmark regenerates its artifact through internal/experiments
// (the same code cmd/argo-bench runs) so `go test -bench=.` exercises the
// full reproduction. The Ablation* benchmarks quantify single design
// choices: sampler deduplication, the tuner's acquisition function,
// sampling/training overlap and the search strategies.
package argo_test

import (
	"io"
	"math/rand"
	"testing"

	"argo/internal/anneal"
	"argo/internal/bayesopt"
	"argo/internal/experiments"
	"argo/internal/graph"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/sampler"
	"argo/internal/search"
)

func BenchmarkFig1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(data.SingleMemBusy*100, "membusy1proc_%")
			b.ReportMetric(data.DualMemBusy*100, "membusy2proc_%")
		}
	}
}

func BenchmarkFig6Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig6(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(data.Procs) - 1
			b.ReportMetric(data.SimEdges[last]/data.SimEdges[0], "workload_inflation_x")
		}
	}
}

func BenchmarkFig7Landscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig9(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(data.Curves) > 0 {
			c := data.Curves[len(data.Curves)-1] // ARGO:8
			b.ReportMetric(c.Accuracy[len(c.Accuracy)-1], "argo8_final_acc")
		}
	}
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVAutoTuner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.TableIV(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(worstTunerQuality(data), "worst_tuner_quality")
		}
	}
}

func BenchmarkTableVAutoTuner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.TableV(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(worstTunerQuality(data), "worst_tuner_quality")
		}
	}
}

func worstTunerQuality(data experiments.TableData) float64 {
	worst := 1.0
	for _, r := range data.Rows {
		if q := r.Exhaustive / r.Tuner; q < worst {
			worst = q
		}
	}
	return worst
}

func BenchmarkTableVISpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableVI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TunerOverhead(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDedup quantifies the sampler's shared-neighbour reuse:
// without per-layer dedup the same epoch samples many more feature rows.
func BenchmarkAblationDedup(b *testing.B) {
	ds, err := graph.BuildByName("ogbn-products", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, dedup := range []bool{true, false} {
		name := "dedup"
		if !dedup {
			name = "nodedup"
		}
		b.Run(name, func(b *testing.B) {
			ns := &sampler.Neighbor{Graph: ds.Graph, Fanouts: []int{15, 10, 5}, Dedup: dedup}
			var nodes int64
			for i := 0; i < b.N; i++ {
				stats := sampler.EpochWorkload(ns, ds.TrainIdx, 256, 1, 7)
				nodes = stats.InputNodes
			}
			b.ReportMetric(float64(nodes), "input_nodes/epoch")
		})
	}
}

// BenchmarkAblationAcquisition compares Expected Improvement against
// random acquisition with the same budget.
func BenchmarkAblationAcquisition(b *testing.B) {
	ds, err := graph.Spec("ogbn-products")
	if err != nil {
		b.Fatal(err)
	}
	sc := platsim.Scenario{
		Platform: platform.IceLake4S, Library: platsim.DGL,
		Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: ds,
	}
	sp := search.DefaultSpace(112)
	obj := platsim.NewObjective(sc)
	optimal := search.Exhaustive(sp, obj).BestTime
	for _, random := range []bool{false, true} {
		name := "ei"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			var quality float64
			for i := 0; i < b.N; i++ {
				tu := bayesopt.NewTuner(sp, 45, int64(i))
				tu.RandomAcquisition = random
				res := tu.Run(obj)
				quality = optimal / res.BestTime
			}
			b.ReportMetric(quality, "quality_vs_optimal")
		})
	}
}

// BenchmarkAblationOverlap measures what the sampling/training pipeline
// overlap is worth: the same configuration with sampling serialized into
// the training loop.
func BenchmarkAblationOverlap(b *testing.B) {
	ds, err := graph.Spec("ogbn-products")
	if err != nil {
		b.Fatal(err)
	}
	sc := platsim.Scenario{
		Platform: platform.IceLake4S, Library: platsim.DGL,
		Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: ds,
	}
	for _, noOverlap := range []bool{false, true} {
		name := "pipelined"
		if noOverlap {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			var epoch float64
			for i := 0; i < b.N; i++ {
				m, err := platsim.Simulate(sc, platsim.SimConfig{
					Procs: 4, SampleCores: 4, TrainCores: 8, MaxIters: 40, NoOverlap: noOverlap,
				})
				if err != nil {
					b.Fatal(err)
				}
				epoch = m.EpochSeconds
			}
			b.ReportMetric(epoch, "sim_epoch_s")
		})
	}
}

// BenchmarkAblationSearchStrategies pits the three search strategies
// against each other on one setup with equal budgets.
func BenchmarkAblationSearchStrategies(b *testing.B) {
	ds, err := graph.Spec("reddit")
	if err != nil {
		b.Fatal(err)
	}
	sc := platsim.Scenario{
		Platform: platform.SapphireRapids2S, Library: platsim.DGL,
		Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: ds,
	}
	sp := search.DefaultSpace(64)
	obj := platsim.NewObjective(sc)
	const budget = 20
	b.Run("bayesopt", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			best = bayesopt.NewTuner(sp, budget, int64(i)).Run(obj).BestTime
		}
		b.ReportMetric(best, "found_epoch_s")
	})
	b.Run("anneal", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			best = anneal.Run(sp, obj, budget, rand.New(rand.NewSource(int64(i))), anneal.Options{}).BestTime
		}
		b.ReportMetric(best, "found_epoch_s")
	})
	b.Run("random", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			best = search.RandomSearch(sp, obj, budget, rand.New(rand.NewSource(int64(i)))).BestTime
		}
		b.ReportMetric(best, "found_epoch_s")
	})
}

// BenchmarkExtensionNUMA measures the §IX future-work extension:
// socket-local feature replicas versus UPI-bound interleaving.
func BenchmarkExtensionNUMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NUMAExtension(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[len(rows)-1].Gain, "gain_112c_x")
		}
	}
}
