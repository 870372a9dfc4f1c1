// Command perfbench is the repository's wall-clock benchmark. It runs one
// named workload against the real training engine, auto-tuner or
// inference server, checks the outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run also records spans around every layer call and reports the
// per-layer set. See README.md for the metric definitions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload train-arxiv --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"train-arxiv":       runTrainArxiv,
	"train-sharded-tcp": runTrainSharded,
	"serve-zipf":        runServeZipf,
	"train-tuned":       runTrainTuned,
}

// run carries one benchmark invocation's settings and its findings.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string // directory for this run's result files
	inputs   string // directory for the generated stores and checkpoint

	attempted, failed int64
	failures          []string

	// metrics reported on the last line (end-to-end or per-layer set).
	metrics map[string]metric
	// detail holds every metric this workload measures, under the names
	// README.md lists, including those not in the last-line set.
	detail map[string]metric
	extra  map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check counts one correctness check; a false ok is a failure.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// ops counts operations outside named checks: served requests.
func (r *run) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// report records a metric in the last-line set.
func (r *run) report(name, unit string, v float64) {
	r.metrics[name] = metric{v, unit}
	r.detail[name] = metric{v, unit}
}

// note records a metric that is printed and saved but not on the last line.
func (r *run) note(name, unit string, v float64) { r.detail[name] = metric{v, unit} }

// noteTail notes the tail of xs (milliseconds) at the highest percentile
// with at least ten samples beyond it, saving the percentile and the
// sample count next to it.
func (r *run) noteTail(name string, xs []float64) {
	q, v, ok := tail(xs)
	r.check(ok, "%s: only %d samples, too few for a tail", name, len(xs))
	r.note(name, "ms", v)
	r.extra[name+"_quantile"] = q
	r.extra[name+"_samples"] = len(xs)
}

func main() {
	workload := flag.String("workload", "", "workload: train-arxiv, train-sharded-tcp, serve-zipf, train-tuned")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed part runs")
	traceFlag := flag.Int("trace", 0, "1 records per-layer spans and reports the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and result files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		work:    filepath.Join(*out, fmt.Sprintf("%s-seed%d", *workload, *seed)),
		inputs:  filepath.Join(*out, "inputs"),
		metrics: map[string]metric{}, detail: map[string]metric{}, extra: map[string]any{},
	}
	for _, dir := range []string{r.work, r.inputs} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := r.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// finish prints the report, saves it next to the inputs, and writes the
// result line.
func (r *run) finish() error {
	// JSON has no NaN: a metric without samples is a failed run, not a
	// crash without a result.
	for name, m := range r.detail {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "metric %s has no finite value", name)
			r.detail[name] = metric{0, m.Unit}
			if _, ok := r.metrics[name]; ok {
				r.metrics[name] = r.detail[name]
			}
		}
	}
	host := hostIdentity(r.seed)
	names := make([]string, 0, len(r.detail))
	for n := range r.detail {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed=%d trace=%v seconds=%g\n", r.workload, r.seed, r.traced, r.seconds)
	fmt.Printf("host: %s, NumCPU=%d, GOMAXPROCS=%d, %s, source %s\n",
		host["cpu_model"], runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), host["source_digest"])
	for _, n := range names {
		m := r.detail[n]
		mark := " "
		if _, ok := r.metrics[n]; ok {
			mark = "*"
		}
		fmt.Printf("%s %-32s %14.6g %s\n", mark, n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	failFrac := float64(r.failed) / math.Max(1, float64(r.attempted))
	fmt.Printf("  %-32s %14.6g fraction (%d of %d operations)\n", "fail_frac", failFrac, r.failed, r.attempted)

	saved, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "seed": r.seed, "trace": r.traced, "seconds": r.seconds,
		"host": host, "metrics": r.detail, "fail_frac": failFrac,
		"attempted": r.attempted, "failed": r.failed, "failures": r.failures, "extra": r.extra,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.work, fmt.Sprintf("result-trace%d.json", boolInt64(r.traced)))
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostIdentity names the machine and the code a result came from. The
// benchmark runs from a plain source tree, so the code is identified by
// a digest of its Go sources rather than a commit id.
func hostIdentity(seed int64) map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"source_digest": sourceDigest(),
		"seed":          seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under the working
// directory (the repository root), skipping build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapPeak samples the Go heap in use until stopped and keeps the
// maximum. It reads the live heap as of the latest garbage collection:
// the heap's objects including not-yet-collected garbage swing with GC
// timing, while the live heap moves only with what the program keeps.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	// A collection first, so the peak starts from what the timed part
	// keeps rather than from the set-up's garbage.
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// mib stops sampling and returns the peak in MiB.
func (h *heapPeak) mib() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// Set-up timing: one set-up takes from under a millisecond to about 20
// ms, too short to time alone against scheduler noise. setupBlocks
// blocks of set-ups run within about setupBudget seconds of set-up
// time, each block as many set-ups as fit its share.
const (
	setupBlocks = 9
	setupBudget = 1.5
	// maxBlockSetups bounds a block when one set-up is very fast, and
	// with it the untimed collections between set-ups.
	maxBlockSetups = 100
)

// repeatSetup times setup in blocks before the timed part. An untimed
// warm-up set-up sizes the blocks; each block then runs setup several
// times, closing every result outside the timing but the very last,
// which it returns open. The block means are saved in the run's result
// file, and the median block mean in seconds is returned.
func repeatSetup[T any](r *run, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	t := time.Now()
	last, err := setup()
	if err != nil {
		return last, 0, err
	}
	per := max(1, min(maxBlockSetups, int(setupBudget/setupBlocks/time.Since(t).Seconds())))
	means := make([]float64, 0, setupBlocks)
	for b := 0; b < setupBlocks; b++ {
		total := 0.0
		for i := 0; i < per; i++ {
			closeFn(last)
			// Each set-up starts from a collected heap, as a set-up at
			// process start does, so the garbage of the set-ups before
			// it is not collected inside its timing. This narrowed the
			// spread of the serving set-up's block means by a third.
			runtime.GC()
			t := time.Now()
			v, err := setup()
			if err != nil {
				var zero T
				return zero, 0, err
			}
			total += time.Since(t).Seconds()
			last = v
		}
		means = append(means, total/float64(per))
	}
	r.extra["setup_block_means_s"] = means
	r.extra["setup_block_size"] = per
	return last, median(means), nil
}

// window is how long one timed loop runs: the whole run, or half of it
// when a traced run also measures an untraced half for comparison.
func (r *run) window() float64 {
	if r.traced {
		return r.seconds / 2
	}
	return r.seconds
}
