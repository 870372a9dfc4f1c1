// Package platsim is the discrete-event performance simulator that stands
// in for the paper's two evaluation machines. It models the
// resources whose contention produces every effect the paper measures:
//
//   - per-process pipelines of sampling / gather / aggregate / dense /
//     backward / sync phases (the Fig. 2 phase alternation),
//   - a shared DRAM bandwidth pool with per-flow caps and water-filling
//     (why a single process stops scaling at ~16 cores, Fig. 1),
//   - NUMA sockets and UPI links (why ARGO flattens past 64 cores, §IX),
//   - saturating parallel efficiency per phase (why over-allocating
//     sampling or training cores back-fires, §V-A2),
//   - per-iteration synchronous-SGD cost growing with process count.
//
// Epoch times produced here drive the auto-tuner comparison (Tables IV–VI)
// and the scalability and end-to-end studies (Figs. 1, 6–8, 10–12).
package platsim

import "math"

// SamplerKind selects the sampling algorithm being simulated.
type SamplerKind string

// ModelKind selects the GNN architecture being simulated.
type ModelKind string

// The sampler/model combinations the paper evaluates, plus the two
// samplers its survey cites: GraphSAINT random walks ([18]) and
// Cluster-GCN ([17]), modelled after this repo's real implementations
// in internal/sampler so the strategy benchmark can sweep all four
// workload shapes.
const (
	Neighbor SamplerKind = "neighbor"
	Shadow   SamplerKind = "shadow"
	Saint    SamplerKind = "saint"
	ClusterK SamplerKind = "cluster"
	// PartLocal is partition-local neighbor sampling (the engine's
	// "local" regime): the frontier recursion is bounded to one
	// replica's owned + 1-hop halo nodes, shrinking the collision pool
	// and therefore the distinct-node workload per iteration.
	PartLocal SamplerKind = "partition"

	SAGE ModelKind = "sage"
	GCN  ModelKind = "gcn"
)

// Profile captures a GNN library's cost characteristics. The two profiles
// are calibrated so the *shape* of the paper's results holds: DGL has fast
// C++ kernels whose intra-process scaling saturates early (the Fig. 1
// plateau), and a well-parallelised neighbor sampler; PyG (the v2.0.3 the
// paper benchmarks) pays an order of magnitude more per unit of sampling
// and kernel work. Both libraries' ShaDow implementations are poorly
// parallelised within a process (the paper's explanation for ShaDow's
// large ARGO speedups: multi-processing is what parallelises them).
type Profile struct {
	Name string

	// Sampling costs, in core-seconds per edge.
	SampleEdgeCost float64 // per sampled edge (neighbor expansion)
	ShadowEdgeCost float64 // per adjacency entry scanned during induction
	// SampleBytesPerEdge is DRAM traffic per sampled edge (CSR reads,
	// hash probes), in bytes.
	SampleBytesPerEdge float64
	// SamplerSerial is the Amdahl serial fraction of the sampling stage
	// within one process, per sampler kind. ShaDow is close to serial.
	SamplerSerial map[SamplerKind]float64

	// Training-phase parallelism is two-level. One process's sparse
	// training kernels stop scaling beyond ~TrainSatCores effective cores
	// (memory-latency bound aggregation/scatter; effective cores follow
	// K·(1−exp(−k/K))), which is why the single-process baseline flattens
	// at ~16 cores (Fig. 1). Independent processes each bring their own
	// saturation budget — ARGO's compute win — but the machine-level
	// concurrency cap TrainMachCores bounds the aggregate. Dense MLP
	// kernels have their own, later-saturating pair.
	TrainSatCores  float64
	TrainMachCores float64
	DenseSatCores  float64
	DenseMachCores float64
	// Kernel throughput per effective core.
	DenseGFPerCore float64
	AggGFPerCore   float64

	// ProcessBWFrac is κ: the fraction of the platform's peak DRAM
	// bandwidth a single process can sustain (first-touch NUMA placement,
	// bounded memory-level parallelism). Multi-processing wins because
	// each process brings its own κ-capped flow.
	ProcessBWFrac float64
	// MemAmplification scales feature-traffic bytes for cache-miss and
	// page-granularity amplification on irregular gathers.
	MemAmplification float64

	// FixedIterCost is the per-iteration, per-process framework overhead
	// (kernel launches, dataloader bookkeeping, Python dispatch for PyG)
	// that no amount of cores removes.
	FixedIterCost float64

	// Synchronous-SGD cost per iteration: SyncBase + SyncPerProc·n.
	SyncBase    float64
	SyncPerProc float64

	// DefaultSample is the library's officially recommended number of
	// sampling workers (the "Default" baseline in Tables IV/V).
	DefaultSample int
}

// DGL models Deep Graph Library v1.1 (paper baseline).
var DGL = Profile{
	Name:               "DGL",
	SampleEdgeCost:     90e-9,
	ShadowEdgeCost:     100e-9,
	SampleBytesPerEdge: 24,
	SamplerSerial: map[SamplerKind]float64{
		Neighbor: 0.08,
		Shadow:   0.70,
		// Random walks parallelise per root but the induction scan is
		// mostly serial; cluster lookup is cheap and the induction
		// dominates.
		Saint:    0.45,
		ClusterK: 0.35,
		// Same per-edge loop as Neighbor plus a branch-predictable
		// membership test; parallelises just as well.
		PartLocal: 0.08,
	},
	TrainSatCores:    6,
	TrainMachCores:   24,
	DenseSatCores:    24,
	DenseMachCores:   48,
	DenseGFPerCore:   18,
	AggGFPerCore:     2.5,
	ProcessBWFrac:    0.31,
	MemAmplification: 2.5,
	FixedIterCost:    4e-3,
	SyncBase:         0.8e-3,
	SyncPerProc:      0.25e-3,
	DefaultSample:    4,
}

// PyG models PyTorch-Geometric v2.0.3 (paper baseline): slow Python-side
// sampling, slow scatter-based kernels that do parallelise reasonably.
var PyG = Profile{
	Name:               "PyG",
	SampleEdgeCost:     800e-9,
	ShadowEdgeCost:     700e-9,
	SampleBytesPerEdge: 32,
	SamplerSerial: map[SamplerKind]float64{
		Neighbor:  0.12,
		Shadow:    0.85,
		Saint:     0.65,
		ClusterK:  0.55,
		PartLocal: 0.12,
	},
	TrainSatCores:    10,
	TrainMachCores:   16,
	DenseSatCores:    10,
	DenseMachCores:   16,
	DenseGFPerCore:   6.0,
	AggGFPerCore:     0.9,
	ProcessBWFrac:    0.30,
	MemAmplification: 2.0,
	FixedIterCost:    15e-3,
	SyncBase:         1.0e-3,
	SyncPerProc:      0.3e-3,
	DefaultSample:    4,
}

// amdahl returns the wall time of `work` core-seconds on k cores with the
// given serial fraction.
func amdahl(work float64, k int, serial float64) float64 {
	if k < 1 {
		k = 1
	}
	return work * (serial + (1-serial)/float64(k))
}

// satTime returns the wall time of `work` per-process core-seconds on k
// cores under the two-level saturation model: the process saturates at
// procK effective cores, and the aggregate over n symmetric processes is
// capped at machK — independent processes bypass per-process saturation
// (ARGO's compute win) but not the machine-level concurrency limit.
func satTime(work float64, k, n int, procK, machK float64) float64 {
	if k < 1 {
		k = 1
	}
	if n < 1 {
		n = 1
	}
	if procK <= 0 {
		return work / float64(k)
	}
	kEff := procK * (1 - math.Exp(-float64(k)/procK))
	if agg := kEff * float64(n); machK > 0 && agg > machK {
		kEff *= machK / agg
	}
	return work / kEff
}
