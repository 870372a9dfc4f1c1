package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"argo/internal/datasets"
	"argo/internal/engine"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/serve"
)

// Serving settings: the argo-serve defaults over a 2-layer SAGE
// checkpoint, queried with a Zipf-skewed stream of 2-node requests.
const (
	serveProfile = "arxiv-sim@x16"
	serveHidden  = 32
	cacheBytes   = 4 << 20
	batchWindow  = 2 * time.Millisecond
	batchMax     = 256
	reqNodes     = 2
	zipfS        = 2.5
	// baseRate is the fixed arrival rate p50_ms and tail_ms are read at.
	baseRate = 30.0
	// baseShare is the share of the timed window the base phase takes;
	// the rate phases share the rest.
	baseShare = 0.6
	// p99LimitMs is the latency limit a rate must meet to count toward
	// serve_max_rps.
	p99LimitMs = 100.0
	// valQueries is how many validation nodes the closed-loop accuracy
	// pass asks for.
	valQueries = 512
	// spotEvery keeps one in spotEvery open-loop answers for the
	// served == direct check.
	spotEvery = 8
	// warmRequests are sent back to back before the base phase.
	warmRequests = 64
	// ladderPhases is how many rate phases follow the base phase: fixed
	// rates upward until one fails, then halving steps between the
	// highest passing and the lowest failing rate.
	ladderPhases = 5
)

// rateLadder is the fixed upward rate schedule after the base phase.
var rateLadder = []float64{200, 300, 400, 600, 800, 1200}

// serveStack is one built server listening on loopback.
type serveStack struct {
	lz      *graph.LazyDataset
	srv     *serve.Server
	hs      *http.Server
	addr    string
	openS   float64
	feats   *busy // non-nil when traced
	cache   *busy
	handler *recorder
}

func (s *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // the listener's error is reported by Serve
	s.srv.Close()
	s.lz.Close()
}

// handlerSpans wraps the server's HTTP handler with one span per
// request.
type handlerSpans struct {
	inner http.Handler
	rec   *recorder
	seq   atomic.Int64
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := h.rec.now()
	h.inner.ServeHTTP(w, req)
	h.rec.add(span{Name: "serve.http", Start: start, End: h.rec.now(), ID: h.seq.Add(1) - 1})
}

// serveInputs writes the scaled store and a checkpoint trained on it
// for two epochs.
func serveInputs(r *run) (store, ckpt string, err error) {
	store = filepath.Join(r.inputs, "arxiv-sim-x16.argograph")
	ckpt = filepath.Join(r.inputs, "sage2.ckpt")
	if _, err := os.Stat(ckpt); err == nil {
		return store, ckpt, nil
	}
	ds, err := saveStore(store, serveProfile, datasetSeed)
	if err != nil {
		return "", "", err
	}
	if ds == nil {
		if ds, _, err = openStore(store); err != nil {
			return "", "", err
		}
	}
	eng, err := engine.New(engine.Config{
		Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{10, 5}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Features.Cols, serveHidden, ds.NumClasses}, Seed: datasetSeed},
		BatchSize: batchSize, LR: learnRate, NumProcs: 1, SampleWorkers: 1, TrainWorkers: runtime.NumCPU(), Seed: datasetSeed,
	})
	if err != nil {
		return "", "", err
	}
	for ep := 0; ep < 2; ep++ {
		if _, err := eng.RunEpoch(ep); err != nil {
			return "", "", err
		}
	}
	return store, ckpt, eng.Model(0).SaveCheckpointFile(ckpt)
}

func buildServe(store, ckpt string, traced bool) (*serveStack, error) {
	t := time.Now()
	lz, err := datasets.ResolveLazy(store, 0, datasets.LoadAuto)
	if err != nil {
		return nil, err
	}
	g, err := lz.Topology()
	if err != nil {
		lz.Close()
		return nil, err
	}
	st := &serveStack{lz: lz, openS: time.Since(t).Seconds()}
	model, err := nn.LoadModelFile(ckpt, nn.Degrees(g))
	if err != nil {
		lz.Close()
		return nil, err
	}
	var feats serve.FeatureSource = serve.NewLazyFeatureSource(lz)
	opts := []serve.Option{
		serve.WithPolicy(serve.PolicyLRU), serve.WithCacheBytes(cacheBytes),
		serve.WithBatchWindow(batchWindow), serve.WithBatchMaxNodes(batchMax),
	}
	if traced {
		st.feats, st.cache, st.handler = &busy{}, &busy{}, newRecorder()
		cache, err := serve.NewCache(serve.PolicyLRU, serve.CacheConfig{
			CapBytes: cacheBytes, RowBytes: serve.StoredRowBytes(feats.Dim(), lz.FeatDtype()),
		})
		if err != nil {
			lz.Close()
			return nil, err
		}
		feats = tracedFeatures{FeatureSource: feats, b: st.feats}
		opts = append(opts, serve.WithCache(tracedCache{Cache: cache, b: st.cache}))
	}
	if st.srv, err = serve.New(serve.Source{Graph: g, Features: feats}, model, opts...); err != nil {
		lz.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		lz.Close()
		return nil, err
	}
	var h http.Handler = st.srv
	if traced {
		h = &handlerSpans{inner: st.srv, rec: st.handler}
	}
	st.hs = &http.Server{Handler: h}
	st.addr = ln.Addr().String()
	go st.hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on close
	return st, nil
}

// client posts predict requests over at most NumCPU keep-alive
// connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(addr string) *client {
	n := runtime.NumCPU()
	return &client{
		hc: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
		}},
		url: "http://" + addr + "/v1/predict",
	}
}

func (c *client) predict(nodes []graph.NodeID) ([]serve.Prediction, error) {
	body, err := json.Marshal(serve.PredictRequest{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out serve.PredictResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	if len(out.Predictions) != len(nodes) {
		return nil, fmt.Errorf("%d predictions for %d nodes", len(out.Predictions), len(nodes))
	}
	for i, p := range out.Predictions {
		if p.Node != nodes[i] {
			return nil, fmt.Errorf("prediction %d is for node %d, asked %d", i, p.Node, nodes[i])
		}
	}
	return out.Predictions, nil
}

// request is one scheduled open-loop request and its outcome.
type request struct {
	nodes []graph.NodeID
	dueRecord
	preds []serve.Prediction
	err   error
}

// openLoop sends requests at the given rate for length seconds: Poisson
// arrivals drawn from rng, nodes from gen. A dispatcher hands each
// request over when due; NumCPU senders post them. Times are seconds
// from the phase start.
func openLoop(c *client, gen serve.Generator, rng *rand.Rand, rate, length float64) []*request {
	var reqs []*request
	for due := rng.ExpFloat64() / rate; due < length; due += rng.ExpFloat64() / rate {
		reqs = append(reqs, &request{nodes: serve.NextBatch(gen, reqNodes), dueRecord: dueRecord{due: due}})
	}
	work := make(chan *request, len(reqs)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				q.preds, q.err = c.predict(q.nodes)
				q.done = time.Since(t0).Seconds()
				q.ok = q.err == nil
			}
		}()
	}
	for _, q := range reqs {
		if d := time.Duration(q.due*float64(time.Second)) - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		q.sent = time.Since(t0).Seconds()
		work <- q
	}
	close(work)
	wg.Wait()
	return reqs
}

func records(reqs []*request) []dueRecord {
	out := make([]dueRecord, len(reqs))
	for i, q := range reqs {
		out[i] = q.dueRecord
	}
	return out
}

// serveLoad is what the timed open loop observed.
type serveLoad struct {
	base    ratePhase
	baseLat []float64
	phases  []ratePhase
	spot    []*request // answers kept for the served == direct check
	sent    []*request // base-phase requests, in due order
	heapMiB float64
}

// drive runs the base phase and, when ladder is set, the rate phases.
func drive(r *run, c *client, gen serve.Generator, rng *rand.Rand, baseLen float64, ladder bool) serveLoad {
	var ld serveLoad
	// Fill the feature cache and open the connections before timing.
	for i := 0; i < warmRequests; i++ {
		nodes := serve.NextBatch(gen, reqNodes)
		_, err := c.predict(nodes)
		r.ops(1, boolInt64(err != nil))
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("warm-up request %v: %v", nodes, err))
		}
	}
	runtime.GC()
	hp := startHeapPeak()
	keep := func(reqs []*request) {
		for i, q := range reqs {
			r.ops(1, boolInt64(!q.ok))
			if !q.ok {
				r.failures = append(r.failures, fmt.Sprintf("request %v: %v", q.nodes, q.err))
			}
			if i%spotEvery == 0 && q.ok {
				ld.spot = append(ld.spot, q)
			}
		}
	}
	reqs := openLoop(c, gen, rng, baseRate, baseLen)
	keep(reqs)
	ld.sent = reqs
	ld.base = summarisePhase(baseRate, baseLen, records(reqs))
	for _, q := range reqs {
		if q.ok {
			ld.baseLat = append(ld.baseLat, q.latency()*1e3)
		}
	}
	// The heap is read over the base phase only: the overload phases
	// park a varying backlog of requests in memory.
	ld.heapMiB = hp.mib()
	if ladder {
		phaseLen := r.seconds * (1 - baseShare) / ladderPhases
		lo, hi := baseRate, math.Inf(1)
		for i, next := 0, 0; i < ladderPhases; i++ {
			rate := math.Round((lo + hi) / 2)
			if math.IsInf(hi, 1) {
				if next == len(rateLadder) {
					break
				}
				rate = rateLadder[next]
				next++
			}
			reqs := openLoop(c, gen, rng, rate, phaseLen)
			keep(reqs)
			p := summarisePhase(rate, phaseLen, records(reqs))
			ld.phases = append(ld.phases, p)
			if p.Failed == 0 && p.P99Ms <= p99LimitMs && !p.BacklogGrew {
				lo = rate
			} else {
				hi = rate
			}
		}
	}
	return ld
}

// printPhases prints each fixed-rate phase: requests sent, succeeded and
// failed, latency from due time, generator lateness and backlog.
func printPhases(phases []ratePhase) {
	for _, p := range phases {
		fmt.Printf("  rate %6.0f/s: sent %5d ok %5d failed %d  p50 %7.2f ms  p99 %8.2f ms  lateness p99 %6.2f ms  backlog %d→%d grew=%v\n",
			p.Rate, p.Sent, p.Succeeded, p.Failed, p.P50Ms, p.P99Ms, p.LatenessMs, p.BacklogMid, p.BacklogEnd, p.BacklogGrew)
	}
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runServeZipf drives argo-serve's stack over HTTP on loopback with an
// open-loop Zipf query stream at fixed rates.
func runServeZipf(r *run) error {
	store, ckpt, err := serveInputs(r)
	if err != nil {
		return err
	}
	stack, setupS, err := repeatSetup(r, func() (*serveStack, error) { return buildServe(store, ckpt, false) }, (*serveStack).close)
	if err != nil {
		return err
	}
	g, err := stack.lz.Topology()
	if err != nil {
		stack.close()
		return err
	}
	gen, err := serve.NewZipfGenerator(g, r.seed, zipfS)
	if err != nil {
		stack.close()
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	baseLen := r.seconds * baseShare
	if r.traced {
		baseLen = r.seconds / 2
	}
	c := newClient(stack.addr)
	ld := drive(r, c, gen, rng, baseLen, !r.traced)

	// Closed-loop accuracy pass over a fixed sample of validation nodes;
	// every answer is also checked against direct inference.
	ds, err := stack.lz.Dataset()
	if err != nil {
		stack.close()
		return err
	}
	var val []*request
	ids := ds.ValIdx[:min(valQueries, len(ds.ValIdx))]
	correct, answered := 0, 0
	for i := 0; i+reqNodes <= len(ids); i += reqNodes {
		q := &request{nodes: ids[i : i+reqNodes]}
		q.preds, q.err = c.predict(q.nodes)
		r.ops(1, boolInt64(q.err != nil))
		if q.err != nil {
			r.failures = append(r.failures, fmt.Sprintf("validation request %v: %v", q.nodes, q.err))
			continue
		}
		val = append(val, q)
		for _, p := range q.preds {
			answered++
			if int32(p.Label) == ds.Labels[p.Node] {
				correct++
			}
		}
	}
	batcher := stack.srv.Batcher().Stats()
	cacheStats := stack.srv.Inferencer().CacheStats()
	stack.close()
	valAcc := float64(correct) / math.Max(1, float64(answered))
	if err := checkDirect(r, ds, ckpt, append(ld.spot, val...)); err != nil {
		return err
	}

	r.report("setup_s", "s", setupS)
	r.report("p50_ms", "ms", median(ld.baseLat))
	r.noteTail("serve_tail_ms", ld.baseLat)
	r.extra["base_latency_ms"] = ld.baseLat
	r.report("val_acc", "fraction", valAcc)
	r.report("heap_peak_mb", "MiB", ld.heapMiB)
	r.check(valAcc > minValAcc, "served validation accuracy %.3f is not above %.2f", valAcc, minValAcc)
	r.note("serve_p50_ms", "ms", ld.base.P50Ms)
	r.note("serve_p99_ms", "ms", ld.base.P99Ms)
	r.note("serve.generator_lateness_p99_ms", "ms", ld.base.LatenessMs)
	r.note("serve.cache_hit_ratio", "fraction", cacheStats.HitRate)
	r.note("serve.batch_nodes", "count", batcher.MeanBatchNodes)
	r.extra["base_phase"] = ld.base
	r.extra["rate_phases"] = ld.phases
	r.extra["p99_limit_ms"] = p99LimitMs
	printPhases(append([]ratePhase{ld.base}, ld.phases...))
	if !r.traced {
		// No passing rate leaves serve_max_rps unreported: a latency
		// limit missed is slow, not wrong, so it is no failure.
		if maxRPS, ok := maxPassingRate(append([]ratePhase{ld.base}, ld.phases...), p99LimitMs); ok {
			r.note("serve_max_rps", "1/s", maxRPS)
		}
		return nil
	}

	// Traced half: the same base phase against a stack whose feature
	// source, cache and HTTP handler are wrapped.
	traced, err := buildServe(store, ckpt, true)
	if err != nil {
		return err
	}
	tc := newClient(traced.addr)
	tld := drive(r, tc, gen, rng, baseLen, false)
	tb := traced.srv.Batcher().Stats()
	tcache := traced.srv.Inferencer().CacheStats()
	spans := traced.handler.snapshot()
	traced.close()
	if err := checkDirect(r, ds, ckpt, tld.spot); err != nil {
		return err
	}

	// Replay: group the base-phase requests, in due order, into batches
	// of the mean coalesced size, and time the gather and inference
	// layers on them.
	model, err := nn.LoadModelFile(ckpt, nn.Degrees(ds.Graph))
	if err != nil {
		return err
	}
	per := max(1, int(math.Round(tb.MeanBatchNodes/reqNodes)))
	var batches [][]graph.NodeID
	for i := 0; i < len(tld.sent); i += per {
		seen := map[graph.NodeID]bool{}
		var nodes []graph.NodeID
		for _, q := range tld.sent[i:min(i+per, len(tld.sent))] {
			for _, v := range q.nodes {
				if !seen[v] {
					seen[v] = true
					nodes = append(nodes, v)
				}
			}
		}
		batches = append(batches, nodes)
	}
	rp := replayInfer(model, ds.Graph, ds.Features, batches)
	fetchMs := float64(traced.feats.nanos.Load()+traced.cache.nanos.Load()) / 1e6 / float64(max(1, tb.Batches))
	service := median(rp.gatherMs) + fetchMs + median(rp.inferMs)

	r.metrics = map[string]metric{}
	r.report("graph.open_s", "s", traced.openS)
	r.report("sampler.batch_ms", "ms", median(rp.gatherMs))
	r.note("sampler.fullneighbor_ms", "ms", median(rp.gatherMs))
	r.report("sampler.input_rows", "count", median(rp.inputRows))
	r.report("fetch.batch_ms", "ms", fetchMs)
	r.report("nn.fwd_ms.l0", "ms", median(rp.layer[0]))
	r.report("nn.fwd_ms.l1", "ms", median(rp.layer[1]))
	r.report("nn.compute_ms", "ms", median(rp.inferMs))
	r.note("nn.infer_ms", "ms", median(rp.inferMs))
	r.report("tensor.gflop_per_batch", "GFLOP", median(rp.gflop))
	r.note("serve.queue_ms", "ms", tb.MeanLatencyMicros/1e3-service)
	r.note("serve.cache_hit_ratio", "fraction", tcache.HitRate)
	r.note("serve.cache_ms", "ms", float64(traced.cache.nanos.Load())/1e6/float64(max(1, tb.Batches)))
	r.note("serve.cache_ns_per_call", "ns", float64(traced.cache.nanos.Load())/float64(max(1, traced.cache.calls.Load())))
	r.note("serve.fetch_rows_per_req", "count", float64(traced.feats.calls.Load())/float64(max(1, tb.Requests)))
	r.note("serve.batch_nodes", "count", tb.MeanBatchNodes)
	// Coverage: the share of each request's client-side time (send to
	// answer) the server's handler span covers.
	var reqTime float64
	for _, q := range tld.sent {
		if q.ok {
			reqTime += q.done - q.sent
		}
	}
	handler := 0.0
	for _, s := range spans[min(warmRequests, len(spans)):] { // the warm-up requests come first
		handler += s.End - s.Start
	}
	r.report("trace.coverage", "fraction", handler/reqTime)
	r.report("trace.overhead_ratio", "ratio", median(tld.baseLat)/median(ld.baseLat))
	r.note("trace.overhead_ms", "ms", median(tld.baseLat)-median(ld.baseLat))
	return writeSpans(filepath.Join(r.work, "spans.json"), spans)
}

// checkDirect compares each kept answer bit for bit with
// serve.DirectPredict on the same nodes, using a separately loaded copy
// of the checkpoint.
func checkDirect(r *run, ds *graph.Dataset, ckpt string, reqs []*request) error {
	model, err := nn.LoadModelFile(ckpt, nn.Degrees(ds.Graph))
	if err != nil {
		return err
	}
	for _, q := range reqs {
		want, err := serve.DirectPredict(model, ds, q.nodes, 1)
		if err != nil {
			return err
		}
		same := len(want) == len(q.preds)
		for i := 0; same && i < len(want); i++ {
			same = want[i].Label == q.preds[i].Label && equalBits(want[i].Logits, q.preds[i].Logits)
		}
		r.check(same, "served answer for %v differs from direct inference", q.nodes)
	}
	return nil
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
