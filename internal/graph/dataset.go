package graph

import (
	"fmt"
	"math/rand"

	"argo/internal/tensor"
)

// PaperStats records a dataset's full-scale statistics and GNN-layer
// dimensions exactly as the paper's Table III reports them. The analytic
// workload model in internal/platsim consumes these numbers directly; real
// execution uses scaled-down instances (see Scaled fields of DatasetSpec).
type PaperStats struct {
	Vertices int64
	Edges    int64
	F0       int // input feature length
	F1       int // hidden feature length
	F2       int // output length (number of classes)
}

// DatasetSpec describes one of the paper's four benchmark datasets plus
// the parameters of its scaled synthetic stand-in.
type DatasetSpec struct {
	Name  string
	Paper PaperStats

	// Scaled-instance parameters: the synthetic graph the real training
	// stack materialises. Degree distribution and feature dimensionality
	// mirror the original; sizes are reduced so the full test suite runs
	// on one core in seconds. Each dataset's scale factor is its Scaled*
	// fields against its Paper stats.
	ScaledNodes   int
	ScaledEdges   int64
	ScaledF0      int
	ScaledHidden  int
	ScaledClasses int
	Homophily     float64
	Exponent      float64
	TrainFrac     float64
}

// Scale returns a copy of the spec with the scaled-instance node and
// edge counts multiplied by factor (≥1). Feature dimensionality, class
// count, and the degree-distribution/homophily parameters are
// unchanged, so a scaled instance keeps the original's per-node shape
// while growing topology and features linearly — the knob that lets
// `argo-data gen -scale N` materialise a registry profile at
// 10×–1000× test size once and reopen it lazily thereafter. The name
// gains an "@xN" suffix so stores record their provenance.
func (s DatasetSpec) Scale(factor int) DatasetSpec {
	if factor <= 1 {
		return s
	}
	s.ScaledNodes *= factor
	s.ScaledEdges *= int64(factor)
	s.Name = fmt.Sprintf("%s@x%d", s.Name, factor)
	return s
}

// Registry lists the four benchmark datasets from Table III, in the
// paper's order.
var Registry = []DatasetSpec{
	{
		Name:          "flickr",
		Paper:         PaperStats{Vertices: 89_250, Edges: 899_756, F0: 500, F1: 128, F2: 7},
		ScaledNodes:   1_800,
		ScaledEdges:   18_000,
		ScaledF0:      64,
		ScaledHidden:  32,
		ScaledClasses: 7,
		Homophily:     0.55,
		Exponent:      2.3,
		TrainFrac:     0.5,
	},
	{
		Name:          "reddit",
		Paper:         PaperStats{Vertices: 232_965, Edges: 11_606_919, F0: 602, F1: 128, F2: 41},
		ScaledNodes:   2_400,
		ScaledEdges:   120_000,
		ScaledF0:      64,
		ScaledHidden:  32,
		ScaledClasses: 16,
		Homophily:     0.6,
		Exponent:      2.0,
		TrainFrac:     0.66,
	},
	{
		Name:          "ogbn-products",
		Paper:         PaperStats{Vertices: 2_449_029, Edges: 61_859_140, F0: 100, F1: 128, F2: 47},
		ScaledNodes:   4_000,
		ScaledEdges:   100_000,
		ScaledF0:      50,
		ScaledHidden:  32,
		ScaledClasses: 12,
		Homophily:     0.65,
		Exponent:      2.1,
		TrainFrac:     0.1,
	},
	{
		Name:          "ogbn-papers100M",
		Paper:         PaperStats{Vertices: 111_059_956, Edges: 1_615_685_872, F0: 128, F1: 128, F2: 172},
		ScaledNodes:   6_000,
		ScaledEdges:   90_000,
		ScaledF0:      64,
		ScaledHidden:  32,
		ScaledClasses: 16,
		Homophily:     0.5,
		Exponent:      2.2,
		TrainFrac:     0.012,
	},
}

// Spec returns the registry entry with the given name.
func Spec(name string) (DatasetSpec, error) {
	for _, s := range Registry {
		if s.Name == name {
			return s, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("graph: unknown dataset %q", name)
}

// Dataset is a materialised (scaled) dataset: graph topology, node
// features, labels, and index splits — everything the training engine
// needs.
type Dataset struct {
	Spec     DatasetSpec
	Graph    *CSR
	Features *tensor.Matrix // NumNodes × F0
	// FeatDtype is the storage/wire encoding of Features (fp32 default,
	// so pre-dtype code and stores are unchanged). Kernels always see
	// float32; a DtypeF16 dataset holds only fp16-exact values — Validate
	// enforces it, ConvertFeatures establishes it.
	FeatDtype  FeatDtype
	Labels     []int32
	NumClasses int
	TrainIdx   []NodeID
	ValIdx     []NodeID
	TestIdx    []NodeID
}

// Build materialises the scaled synthetic instance of spec with the given
// seed. Features are community centroids plus Gaussian noise, which makes
// the classification task learnable and the convergence curves in the
// Fig. 9 reproduction non-trivial.
func Build(spec DatasetSpec, seed int64) (*Dataset, error) {
	g, labels, err := Generate(GenSpec{
		NumNodes:   spec.ScaledNodes,
		NumEdges:   spec.ScaledEdges,
		NumClasses: spec.ScaledClasses,
		Exponent:   spec.Exponent,
		MinDegree:  2,
		Homophily:  spec.Homophily,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	feats := communityFeatures(rng, labels, spec.ScaledClasses, spec.ScaledF0, 0.8)

	train, val, test := split(rng, spec.ScaledNodes, spec.TrainFrac)
	return &Dataset{
		Spec:       spec,
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: spec.ScaledClasses,
		TrainIdx:   train,
		ValIdx:     val,
		TestIdx:    test,
	}, nil
}

// BuildByName is Build for a registry name.
func BuildByName(name string, seed int64) (*Dataset, error) {
	spec, err := Spec(name)
	if err != nil {
		return nil, err
	}
	return Build(spec, seed)
}

// communityFeatures draws per-class centroids on the unit hypercube corners
// and adds Gaussian noise with the given standard deviation.
func communityFeatures(rng *rand.Rand, labels []int32, classes, dim int, noise float64) *tensor.Matrix {
	centroids := tensor.New(classes, dim)
	for i := range centroids.Data {
		if rng.Float64() < 0.5 {
			centroids.Data[i] = 1
		} else {
			centroids.Data[i] = -1
		}
	}
	feats := tensor.New(len(labels), dim)
	for v, c := range labels {
		row := feats.Row(v)
		cen := centroids.Row(int(c))
		for j := range row {
			row[j] = cen[j] + float32(rng.NormFloat64()*noise)
		}
	}
	return feats
}

// split shuffles node IDs and carves train/val/test index sets. Validation
// and test each take half of what remains after the training fraction.
func split(rng *rand.Rand, n int, trainFrac float64) (train, val, test []NodeID) {
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	if nTrain < 1 {
		nTrain = 1
	}
	rest := n - nTrain
	nVal := rest / 2
	ids := make([]NodeID, n)
	for i, p := range perm {
		ids[i] = NodeID(p)
	}
	return ids[:nTrain], ids[nTrain : nTrain+nVal], ids[nTrain+nVal:]
}
