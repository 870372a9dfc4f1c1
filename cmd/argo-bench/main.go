// Command argo-bench regenerates the tables and figures of the ARGO paper
// on the platform simulator (plus the real-training convergence study),
// and benchmarks the registered tuning strategies head-to-head through
// the public runtime API, emitting a machine-readable BENCH_argo.json so
// the performance trajectory can be tracked across commits.
//
// Usage:
//
//	argo-bench -list
//	argo-bench -exp fig1
//	argo-bench -exp all
//	argo-bench -exp none -strategy all -json BENCH_argo.json
//	argo-bench -exp none -dataset arxiv-sim,reddit-sim
//	argo-bench -exchange -transport tcp -dataset tiny
//	argo-bench -serve -dataset tiny -requests 400 -cache-bytes 4096
//
// -serve switches to the inference-serving benchmark: each workload is
// served through the argo-serve stack (full-neighbor gather, hot-node
// feature cache, micro-batcher) under a Zipf-skewed and a uniform query
// stream, and the per-workload rows — cache hit-rate, batch shape,
// latency percentiles, throughput — are merged into BENCH_argo.json as
// a "serve" section next to the strategy entries. Closed loop by
// default (-concurrency workers back to back); -rate switches to an
// open loop firing at that many requests/sec. Under -stable the drive
// is sequential and wall-clock fields are zeroed, so the rows (and the
// zipf-vs-uniform hit-rate gap CI gates on) are seed-deterministic.
//
// -exchange switches to the halo-exchange traffic benchmark: each
// workload is sharded (k=4), trained for two epochs on two replicas
// over the selected -transport, and the batched exchange's traffic —
// per-peer rows/bytes/messages, and the message reduction against the
// per-row baseline — is reported and written as JSON. Traffic counts
// are deterministic for a fixed seed, so the artifact is byte-stable
// under -stable.
//
// -dataset selects which workloads the strategy benchmark covers: a
// comma-separated list of registry profiles (argo-data ls) and/or
// .argograph file paths, or "all" for every paper profile. Each dataset
// becomes one entry in BENCH_argo.json, so the strategy comparison runs
// across scenario-diverse workloads.
//
// The experiment ↔ paper mapping is experiments.Registry
// (internal/experiments/setups.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"argo"
	"argo/internal/datasets"
	"argo/internal/ddp"
	"argo/internal/engine"
	"argo/internal/experiments"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/sampler"
	"argo/internal/search"
	"argo/internal/serve"
)

// strategyResult is one row of BENCH_argo.json: a tuning strategy run
// through the public Runtime on the simulated platform.
type strategyResult struct {
	Strategy         string      `json:"strategy"`
	Best             argo.Config `json:"best"`
	BestEpochSeconds float64     `json:"best_epoch_seconds"`
	// Quality is optimal/best — 1.0 means the strategy found the true
	// optimum of the space.
	Quality         float64 `json:"quality"`
	SearchEpochs    int     `json:"search_epochs"`
	TunerOverhead   string  `json:"tuner_overhead"`
	TunerOverheadNs int64   `json:"tuner_overhead_ns"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// datasetBench is the strategy comparison on one (workload, sampler)
// pair.
type datasetBench struct {
	Dataset        string           `json:"dataset"`
	Sampler        string           `json:"sampler"`
	Scenario       string           `json:"scenario"`
	SpaceSize      int              `json:"space_size"`
	OptimalSeconds float64          `json:"optimal_seconds"`
	Strategies     []strategyResult `json:"strategies"`
}

// benchSampler is one -sampler selection: the simulated sampler/model
// pairing the paper (and its survey) evaluates together.
type benchSampler struct {
	name    string
	kind    platsim.SamplerKind
	model   platsim.ModelKind
	display string
}

var benchSamplers = []benchSampler{
	{"neighbor", platsim.Neighbor, platsim.SAGE, "Neighbor-SAGE"},
	{"shadow", platsim.Shadow, platsim.GCN, "ShaDow-GCN"},
	{"saint", platsim.Saint, platsim.SAGE, "SAINT-SAGE"},
	{"cluster", platsim.ClusterK, platsim.GCN, "Cluster-GCN"},
	{"partition", platsim.PartLocal, platsim.SAGE, "Partition-SAGE"},
}

// parseSamplers expands the -sampler flag into concrete pairings.
func parseSamplers(flagVal string) ([]benchSampler, error) {
	if flagVal == "all" {
		return benchSamplers, nil
	}
	var out []benchSampler
	for _, n := range strings.Split(flagVal, ",") {
		n = strings.TrimSpace(strings.ToLower(n))
		if n == "" {
			continue
		}
		found := false
		for _, s := range benchSamplers {
			if s.name == n {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			var known []string
			for _, s := range benchSamplers {
				known = append(known, s.name)
			}
			return nil, fmt.Errorf("unknown sampler %q (registered: %s, or \"all\")", n, strings.Join(known, ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sampler selected no samplers")
	}
	return out, nil
}

// benchJSON is the whole emitted artifact: one entry per benchmarked
// dataset.
type benchJSON struct {
	TotalCores int            `json:"total_cores"`
	Searches   int            `json:"searches"`
	Epochs     int            `json:"epochs"`
	Datasets   []datasetBench `json:"datasets"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list), \"all\", or \"none\"")
	list := flag.Bool("list", false, "list available experiments")
	strategy := flag.String("strategy", "all",
		"strategy benchmark: a registered name ("+strings.Join(argo.Strategies(), ", ")+"), \"all\", or \"none\"")
	datasetFlag := flag.String("dataset", "products-sim",
		"strategy-benchmark workloads: comma-separated registry profiles ("+strings.Join(datasets.PaperNames(), ", ")+
			") and/or .argograph paths, or \"all\" for every paper profile")
	samplerFlag := flag.String("sampler", "neighbor",
		"strategy-benchmark samplers: comma-separated from neighbor, shadow, saint, cluster, or \"all\"; "+
			"each (dataset, sampler) pair becomes one BENCH_argo.json entry")
	jsonPath := flag.String("json", "BENCH_argo.json", "where to write the strategy benchmark JSON")
	searches := flag.Int("searches", 20, "online-learning budget per strategy (paper Table VI: 20 on 64 cores)")
	lazyFlag := flag.String("lazy", "auto",
		"store access for .argograph -dataset paths: auto/on read only the spec section; off fully loads and verifies the store first")
	stable := flag.Bool("stable", false,
		"zero wall-clock fields in the JSON so repeated runs are byte-identical (CI regression gating)")
	exchangeFlag := flag.Bool("exchange", false,
		"run the halo-exchange traffic benchmark instead of the experiments/strategy benchmarks")
	transport := flag.String("transport", "inproc",
		"exchange transport for -exchange: inproc (direct calls) or tcp (loopback sockets)")
	serveFlag := flag.Bool("serve", false,
		"run the inference-serving benchmark (zipf vs uniform query streams) and merge a \"serve\" section into the JSON artifact")
	serveRequests := flag.Int("requests", 400, "serving benchmark: requests per (dataset, workload) row")
	serveConcurrency := flag.Int("concurrency", 4, "serving benchmark: closed-loop client workers")
	serveReqNodes := flag.Int("req-nodes", 4, "serving benchmark: nodes per predict request")
	serveRate := flag.Float64("rate", 0, "serving benchmark: open-loop request rate in req/s (0 = closed loop)")
	serveCacheBytes := flag.Int64("cache-bytes", 64<<10, "serving benchmark: hot-node feature cache budget")
	servePolicies := flag.String("cache-policy", "all",
		"serving benchmark: comma-separated cache policies ("+strings.Join(serve.Policies(), ", ")+") or \"all\"; one row pair per policy")
	serveHops := flag.Int("hops", 2, "serving benchmark: gather depth / model layers (2+ makes each request a frontier scan)")
	serveHubPin := flag.Float64("hub-pin", 0.01, "serving benchmark: top-degree fraction pinned by the twotier policy")
	servePrecompute := flag.Float64("precompute-hubs", 0, "serving benchmark: top-degree fraction with precomputed activations (0 disables hub serving)")
	serveZipfS := flag.Float64("zipf-s", 2.0, "serving benchmark: skew of the zipf query stream (must be > 1)")
	featDtypeFlag := flag.String("feat-dtype", "fp32",
		"-exchange/-serve workload feature dtype: fp32 or fp16 (fp16 converts each workload once up front, making the store dtype drive the wire format and cache packing)")
	regimesFlag := flag.Bool("regimes", false,
		"run the sampling-regime study: train each workload's shard set under the exact and partition-local regimes "+
			"and merge per-epoch loss + halo-traffic curves (and the wire-reduction / loss-delta headline) into -json")
	regimeEpochs := flag.Int("regime-epochs", 4, "regime study: training epochs per regime")
	kernelsFlag := flag.Bool("kernels", false,
		"run the kernel benchmark (degree-aware chunk balance + pooled forward timings on a synthetic power-law graph) and merge a \"kernels\" section into the JSON artifact")
	kernelWorkers := flag.Int("kernel-workers", 8,
		"kernel benchmark: worker count the chunk-balance metrics are computed for (machine-independent)")
	flag.Parse()

	loadMode, err := datasets.ParseLoadMode(*lazyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
		os.Exit(1)
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *exchangeFlag {
		jp := *jsonPath
		if jp == "BENCH_argo.json" {
			jp = "BENCH_exchange.json" // don't clobber the strategy artifact by default
		}
		if err := benchExchange(*datasetFlag, *transport, *featDtypeFlag, jp, *stable, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serveFlag {
		// Merges into the strategy artifact rather than clobbering it,
		// so the default -json path is the right destination.
		if err := benchServe(serveBenchConfig{
			Datasets:    *datasetFlag,
			Policies:    *servePolicies,
			Hops:        *serveHops,
			Requests:    *serveRequests,
			Concurrency: *serveConcurrency,
			ReqNodes:    *serveReqNodes,
			Rate:        *serveRate,
			CacheBytes:  *serveCacheBytes,
			HubPin:      *serveHubPin,
			Precompute:  *servePrecompute,
			ZipfS:       *serveZipfS,
			FeatDtype:   *featDtypeFlag,
			JSONPath:    *jsonPath,
			Stable:      *stable,
		}, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *regimesFlag {
		// Like -serve, merges into the strategy artifact.
		if err := benchRegimes(*datasetFlag, *transport, *regimeEpochs, *jsonPath, *stable, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *kernelsFlag {
		// Like -serve, merges into the strategy artifact.
		if err := benchKernels(*kernelWorkers, *jsonPath, *stable, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	strategySet := false
	flag.Visit(func(f *flag.Flag) {
		// An explicit -json, -dataset, or -sampler is as clear a request
		// for the benchmark artifact as an explicit -strategy.
		if f.Name == "strategy" || f.Name == "json" || f.Name == "dataset" || f.Name == "sampler" {
			strategySet = true
		}
	})
	*strategy = strings.ToLower(strings.TrimSpace(*strategy))
	// Fail fast on a typo'd strategy name before the (slow) experiments.
	if *strategy != "all" && *strategy != "none" {
		known := false
		for _, n := range argo.Strategies() {
			if n == *strategy {
				known = true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "argo-bench: unknown strategy %q (registered: %s)\n",
				*strategy, strings.Join(argo.Strategies(), ", "))
			os.Exit(1)
		}
	}
	if *exp != "none" {
		names := []string{*exp}
		if *exp == "all" {
			names = experiments.Names()
		}
		for _, name := range names {
			start := time.Now()
			if err := experiments.Run(name, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "argo-bench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("[%s took %s]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *strategy == "none" {
		return
	}
	// A request for one specific experiment keeps its pre-redesign
	// behaviour: the strategy benchmark (and its BENCH_argo.json) only
	// runs when asked for explicitly or on a default full run.
	if *exp != "all" && *exp != "none" && !strategySet {
		return
	}
	samplers, err := parseSamplers(strings.ToLower(strings.TrimSpace(*samplerFlag)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
		os.Exit(1)
	}
	if err := benchStrategies(*strategy, *datasetFlag, samplers, *searches, *jsonPath, loadMode, *stable, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "argo-bench: %v\n", err)
		os.Exit(1)
	}
}

// benchWorkload is one resolved -dataset entry.
type benchWorkload struct {
	name string
	spec graph.DatasetSpec
}

// benchDatasets expands the -dataset flag and resolves every workload up
// front, so a typo'd name fails fast instead of after minutes of
// benchmarking the names before it. Path workloads resolve through the
// store's spec section only (lazy); -lazy off forces a full,
// checksum-verified load before the spec is trusted.
func benchDatasets(datasetFlag string, mode datasets.LoadMode) ([]benchWorkload, error) {
	names := datasets.PaperNames()
	if datasetFlag != "all" {
		names = nil
		for _, n := range strings.Split(datasetFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-dataset selected no workloads")
	}
	out := make([]benchWorkload, 0, len(names))
	for _, n := range names {
		spec, err := datasets.ResolveSpecMode(n, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, benchWorkload{name: n, spec: spec})
	}
	return out, nil
}

// benchStrategies runs each requested strategy through the public
// Runtime.Run loop on the Table-IV simulator setting (a 64-core
// Sapphire Rapids) once per requested (dataset, sampler) pair, with an
// identical budget everywhere, and writes the per-pair comparison to
// jsonPath. With stable set, wall-clock fields are zeroed so the
// artifact is a pure function of (datasets, samplers, strategies,
// budget, seed) — byte-stable across runs, which is what CI's
// bench-smoke job diffs.
func benchStrategies(which, datasetFlag string, samplers []benchSampler, searches int, jsonPath string, mode datasets.LoadMode, stable bool, w *os.File) error {
	workloads, err := benchDatasets(datasetFlag, mode)
	if err != nil {
		return err
	}
	names := argo.Strategies()
	if which != "all" {
		names = []string{which}
	}
	const totalCores = 64
	epochs := searches + 4 // a short reuse tail exercises the full loop
	out := benchJSON{
		TotalCores: totalCores,
		Searches:   searches,
		Epochs:     epochs,
	}
	for _, wl := range workloads {
		for _, smp := range samplers {
			dsName, spec := wl.name, wl.spec
			sc := platsim.Scenario{
				Platform: platform.SapphireRapids2S,
				Library:  platsim.DGL,
				Sampler:  smp.kind,
				Model:    smp.model,
				Dataset:  spec,
			}
			obj := platsim.NewObjective(sc)
			space := argo.DefaultSpace(totalCores)
			optimum := search.Exhaustive(space, obj).BestTime
			db := datasetBench{
				Dataset:        dsName,
				Sampler:        smp.name,
				Scenario:       smp.display + " / " + spec.Name + " / " + sc.Platform.Name,
				SpaceSize:      space.Size(),
				OptimalSeconds: optimum,
			}
			fmt.Fprintf(w, "== strategy benchmark: %s, space %d, budget %d ==\n", db.Scenario, db.SpaceSize, searches)
			for _, name := range names {
				rt, err := argo.NewRuntime(epochs, searches,
					argo.WithTotalCores(totalCores),
					argo.WithStrategy(name),
					argo.WithSeed(7),
				)
				if err != nil {
					return err
				}
				start := time.Now()
				rep, err := rt.Run(context.Background(), func(_ context.Context, cfg argo.Config, _ int) (float64, error) {
					return obj.Evaluate(cfg), nil
				})
				if err != nil {
					return fmt.Errorf("strategy %s on %s/%s: %w", name, dsName, smp.name, err)
				}
				res := strategyResult{
					Strategy:         name,
					Best:             rep.Best,
					BestEpochSeconds: rep.BestEpochSeconds,
					Quality:          optimum / rep.BestEpochSeconds,
					SearchEpochs:     rep.SearchEpochs,
					TunerOverhead:    rep.TunerOverhead.String(),
					TunerOverheadNs:  rep.TunerOverhead.Nanoseconds(),
					WallSeconds:      time.Since(start).Seconds(),
				}
				if stable {
					// The simulator outputs are deterministic for a fixed
					// seed; only the real-time measurements vary run to run.
					res.TunerOverhead = "0s"
					res.TunerOverheadNs = 0
					res.WallSeconds = 0
				}
				db.Strategies = append(db.Strategies, res)
				fmt.Fprintf(w, "%-11s best %-15s %.3fs/epoch  quality %.2f  overhead %s\n",
					name, rep.Best.String(), rep.BestEpochSeconds, res.Quality, rep.TunerOverhead.Round(time.Microsecond))
			}
			out.Datasets = append(out.Datasets, db)
		}
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Fprintf(w, "strategy benchmark (%d datasets) written to %s\n", len(out.Datasets), jsonPath)
	return nil
}

// exchangeBench is one row of the -exchange artifact: a sharded
// 2-replica training run's batched halo-exchange traffic on one
// workload. Every count is deterministic for a fixed seed.
type exchangeBench struct {
	Dataset   string            `json:"dataset"`
	Shards    int               `json:"shards"`
	Replicas  int               `json:"replicas"`
	Epochs    int               `json:"epochs"`
	FeatDtype string            `json:"feat_dtype"`
	EdgeCut   int64             `json:"edge_cut_arcs"`
	Exchange  ddp.ExchangeStats `json:"exchange"`
	// PerRowMessages is what the per-row baseline would have sent: one
	// message per remote row. Reduction = PerRowMessages / Messages.
	PerRowMessages int64   `json:"per_row_messages"`
	Reduction      float64 `json:"message_reduction"`
	WallSeconds    float64 `json:"wall_seconds"`
}

// benchExchange shards each workload (k=4), trains two epochs on two
// replicas over the selected transport, and reports the batched
// exchange's traffic next to the per-row baseline it replaced.
func benchExchange(datasetFlag, transport, featDtype, jsonPath string, stable bool, w *os.File) error {
	dt, err := graph.ParseFeatDtype(featDtype)
	if err != nil {
		return err
	}
	var names []string
	if datasetFlag == "all" {
		names = datasets.PaperNames()
	} else {
		for _, n := range strings.Split(datasetFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-dataset selected no workloads")
	}
	const (
		seed     = 7
		shards   = 4
		replicas = 2
		epochs   = 2
	)
	out := struct {
		Transport string          `json:"transport"`
		Exchange  []exchangeBench `json:"exchange"`
	}{Transport: transport}
	for _, name := range names {
		ds, err := datasets.Resolve(name, seed)
		if err != nil {
			return err
		}
		// Converting before sharding makes the shard manifest carry the
		// dtype, which is what negotiates the fp16 wire format downstream.
		if err := ds.ConvertFeatures(dt); err != nil {
			return err
		}
		ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: shards, Seed: seed})
		if err != nil {
			return err
		}
		skel, err := ss.Skeleton()
		if err != nil {
			ss.Close()
			return err
		}
		sources, ex, err := engine.NewShardSourcesOpts(ss, replicas, engine.ShardSourceOptions{Transport: transport})
		if err != nil {
			ss.Close()
			return err
		}
		eng, err := engine.New(engine.Config{
			Dataset:       skel,
			Sampler:       sampler.NewNeighbor(skel.Graph, []int{10, 5}),
			Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: seed},
			BatchSize:     64,
			LR:            0.01,
			NumProcs:      replicas,
			SampleWorkers: 2,
			TrainWorkers:  1,
			Seed:          seed,
			Sources:       sources,
		})
		if err != nil {
			ex.Close()
			ss.Close()
			return err
		}
		start := time.Now()
		for ep := 0; ep < epochs; ep++ {
			if _, err := eng.RunEpoch(ep); err != nil {
				ex.Close()
				ss.Close()
				return fmt.Errorf("%s: epoch %d: %w", name, ep, err)
			}
		}
		row := exchangeBench{
			Dataset:        name,
			Shards:         shards,
			Replicas:       replicas,
			Epochs:         epochs,
			FeatDtype:      dt.String(),
			EdgeCut:        ss.Manifest.TotalCutArcs(),
			Exchange:       ex.Summary(),
			PerRowMessages: ex.TotalStats().RemoteRows,
			WallSeconds:    time.Since(start).Seconds(),
		}
		if row.Exchange.Messages > 0 {
			row.Reduction = float64(row.PerRowMessages) / float64(row.Exchange.Messages)
		}
		if stable {
			row.WallSeconds = 0
		}
		out.Exchange = append(out.Exchange, row)
		fmt.Fprintf(w, "%-16s %s %s: %d remote rows, %d logical bytes → %d wire bytes in %d messages (per-row baseline %d → %.1f× fewer)\n",
			name, transport, dt, row.Exchange.RemoteRows, row.Exchange.RemoteBytes,
			row.Exchange.WireBytes, row.Exchange.Messages, row.PerRowMessages, row.Reduction)
		ex.Close()
		ss.Close()
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Fprintf(w, "exchange benchmark (%d workloads, %s transport) written to %s\n", len(out.Exchange), transport, jsonPath)
	return nil
}
