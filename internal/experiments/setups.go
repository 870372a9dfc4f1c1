// Package experiments regenerates every table and figure from the paper's
// evaluation section (Registry is the per-experiment index).
// Each experiment writes a human-readable rendition to an io.Writer and
// returns its structured data so tests can assert the expected shapes.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"argo/internal/graph"
	"argo/internal/platform"
	"argo/internal/platsim"
)

// Setup names one (library, platform, sampler-model, dataset) cell of the
// paper's evaluation grid.
type Setup struct {
	Lib     platsim.Profile
	Plat    platform.Spec
	Sampler platsim.SamplerKind
	Model   platsim.ModelKind
	Dataset string
	// Spec, when non-nil, supplies the dataset specification directly —
	// for workloads resolved outside the graph registry (a *-sim profile
	// or a loaded .argograph store). Dataset stays the display name.
	Spec *graph.DatasetSpec
}

// Scenario materialises the setup's simulator scenario.
func (s Setup) Scenario() platsim.Scenario {
	ds := graph.DatasetSpec{}
	if s.Spec != nil {
		ds = *s.Spec
	} else {
		var err error
		ds, err = graph.Spec(s.Dataset)
		if err != nil {
			panic(err) // setups are compile-time constants; a bad name is a bug
		}
	}
	return platsim.Scenario{
		Platform: s.Plat,
		Library:  s.Lib,
		Sampler:  s.Sampler,
		Model:    s.Model,
		Dataset:  ds,
	}
}

// SamplerModel renders "Neighbor-SAGE" / "ShaDow-GCN" like the paper.
func (s Setup) SamplerModel() string {
	name := map[platsim.SamplerKind]string{platsim.Neighbor: "Neighbor", platsim.Shadow: "ShaDow"}[s.Sampler]
	model := map[platsim.ModelKind]string{platsim.SAGE: "SAGE", platsim.GCN: "GCN"}[s.Model]
	return name + "-" + model
}

// The paper evaluates exactly these two sampler-model pairs (§VI-A2).
var samplerModels = []struct {
	Sampler platsim.SamplerKind
	Model   platsim.ModelKind
}{
	{platsim.Neighbor, platsim.SAGE},
	{platsim.Shadow, platsim.GCN},
}

var platforms = []platform.Spec{platform.IceLake4S, platform.SapphireRapids2S}

var datasets = []string{"flickr", "reddit", "ogbn-products", "ogbn-papers100M"}

// searchBudget mirrors Table VI: the number of online-learning epochs per
// platform and sampler-model pair (5–6 % of the space).
func searchBudget(plat platform.Spec, sampler platsim.SamplerKind) int {
	switch {
	case plat.TotalCores() >= 112 && sampler == platsim.Neighbor:
		return 35
	case plat.TotalCores() >= 112:
		return 45
	case sampler == platsim.Neighbor:
		return 20
	default:
		return 25
	}
}

// Runner is the registry entry type used by cmd/argo-bench.
type Runner func(w io.Writer) error

// Registry maps experiment names to their regenerators.
var Registry = map[string]Runner{
	"fig1":      func(w io.Writer) error { _, err := Fig1(w); return err },
	"fig2":      func(w io.Writer) error { _, err := Fig2(w); return err },
	"fig6":      func(w io.Writer) error { _, err := Fig6(w); return err },
	"fig7":      func(w io.Writer) error { _, err := Fig7(w); return err },
	"fig8":      func(w io.Writer) error { _, err := Fig8(w); return err },
	"fig9":      func(w io.Writer) error { _, err := Fig9(w); return err },
	"fig10":     func(w io.Writer) error { _, err := Fig10(w); return err },
	"fig11":     func(w io.Writer) error { _, err := Fig11(w); return err },
	"fig12":     func(w io.Writer) error { _, err := Fig12(w); return err },
	"table4":    func(w io.Writer) error { _, err := TableIV(w); return err },
	"table5":    func(w io.Writer) error { _, err := TableV(w); return err },
	"table6":    func(w io.Writer) error { _, err := TableVI(w); return err },
	"numa":      func(w io.Writer) error { _, err := NUMAExtension(w); return err },
	"overhead":  func(w io.Writer) error { _, err := TunerOverhead(w); return err },
	"partition": func(w io.Writer) error { _, err := PartitionAblation(w); return err },
}

// Names returns the registry keys in sorted order.
func Names() []string {
	var names []string
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by name.
func Run(name string, w io.Writer) error {
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(w)
}
