package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"argo/internal/engine"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/serve"
	"argo/internal/tensor"
	"argo/internal/trace"
)

// span is one timed call at a layer boundary. Times are seconds since
// the recorder started. Parent is the index of the enclosing span (−1
// for a root); ID is the iteration, batch or request the span served.
type span struct {
	Name   string  `json:"name"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	ID     int64   `json:"id"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths share the call sites.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	parent int // index of the open root span new spans belong to, or −1
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), parent: -1} }

func (r *recorder) now() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.t0).Seconds()
}

// add records a finished span as a child of the open root span and
// returns its index.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Parent = r.parent
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// open starts a root span (an epoch, a tuned run) that spans recorded
// until end is called belong to.
func (r *recorder) open(name string, id int64) int {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: start, Parent: -1, ID: id})
	r.parent = len(r.spans) - 1
	return r.parent
}

// end closes the root span i and returns its interval.
func (r *recorder) end(i int) interval {
	if r == nil {
		return interval{}
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
	r.parent = -1
	return interval{r.spans[i].Start, t}
}

// setProc re-assigns a recorded span's lane (a sampler span learns its
// replica when that replica's fetch of the same batch starts).
func (r *recorder) setProc(i, proc int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[i].Proc = proc
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// byName returns the intervals of every span with the given name.
func byName(spans []span, names ...string) []interval {
	var out []interval
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, interval{s.Start, s.End})
			}
		}
	}
	return out
}

// durations returns the lengths of every span with the given name, in
// milliseconds.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, (s.End-s.Start)*1e3)
		}
	}
	return out
}

// timelinePhase maps span names onto the phases internal/trace draws
// in the paper's Fig. 2 lanes; spans without a lane are left out.
var timelinePhase = map[string][2]string{
	"sampler.sample": {"sampler", "sample"},
	"engine.fetch":   {"sampler", "gather"},
	"nn.step":        {"trainer", "dense"},
}

// replayedSteps returns one nn.step span per engine.hook marker (a
// BatchHook call): it ends at the hook, belongs to the same epoch, and
// lasts iterS, the replayed median iteration. The engine's training
// step has no interface to wrap, so its compute is placed where it runs,
// just before the hook, with the length the layer-by-layer replay
// measured. What an epoch spends beyond the sampler, fetch and these
// spans is engine time no layer accounts for.
func replayedSteps(spans []span, iterS float64) []span {
	var out []span
	for _, s := range spans {
		if s.Name == "engine.hook" {
			out = append(out, span{Name: "nn.step", Start: s.End - iterS, End: s.End, Parent: s.Parent, ID: s.ID})
		}
	}
	return out
}

// timelineEvents converts training spans to trace.Event values so
// trace.Timeline.Render can draw the measured lanes.
func timelineEvents(spans []span) []trace.Event {
	var out []trace.Event
	for _, s := range spans {
		lane, ok := timelinePhase[s.Name]
		if !ok {
			continue
		}
		out = append(out, trace.Event{Proc: s.Proc, Actor: lane[0], Phase: lane[1], Start: s.Start, End: s.End})
	}
	return out
}

// renderEpoch draws the measured lanes inside one epoch span with
// trace.Timeline.Render, times shifted to the epoch start.
func renderEpoch(spans []span, ep interval, width int) string {
	var tl trace.Timeline
	for _, e := range timelineEvents(spans) {
		if e.Start >= ep.start && e.End <= ep.end {
			e.Start -= ep.start
			e.End -= ep.start
			tl.Add(e)
		}
	}
	return tl.Render(width)
}

// writeSpans writes the raw spans and their trace.Event form as one
// JSON file.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(struct {
		Spans  []span        `json:"spans"`
		Events []trace.Event `json:"events"`
	}{spans, timelineEvents(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedSampler wraps a sampler.Sampler, recording one span per batch
// and, while recording is on, keeping the sampled batches for replay.
type tracedSampler struct {
	sampler.Sampler
	rec  *recorder
	seq  atomic.Int64
	keep int // batches to keep for replay

	mu      sync.Mutex
	kept    []*sampler.MiniBatch
	lanes   bool                  // a tracedSource claims spans for its replica
	pending map[*graph.NodeID]int // first input id → sample span index, until claimed
}

func newTracedSampler(inner sampler.Sampler, rec *recorder, keep int) *tracedSampler {
	return &tracedSampler{Sampler: inner, rec: rec, keep: keep, pending: map[*graph.NodeID]int{}}
}

func (s *tracedSampler) Sample(rng *rand.Rand, targets []graph.NodeID) *sampler.MiniBatch {
	start := s.rec.now()
	mb := s.Sampler.Sample(rng, targets)
	idx := s.rec.add(span{Name: "sampler.sample", Start: start, End: s.rec.now(), ID: s.seq.Add(1) - 1})
	s.mu.Lock()
	if len(s.kept) < s.keep {
		s.kept = append(s.kept, mb)
	}
	if in := mb.InputNodes(); s.lanes && len(in) > 0 {
		s.pending[&in[0]] = idx
	}
	s.mu.Unlock()
	return mb
}

// claim hands the sample span of the batch whose input ids are ids to
// the replica about to fetch it.
func (s *tracedSampler) claim(ids []graph.NodeID, proc int) {
	if s == nil || len(ids) == 0 {
		return
	}
	s.mu.Lock()
	idx, ok := s.pending[&ids[0]]
	delete(s.pending, &ids[0])
	s.mu.Unlock()
	if ok {
		s.rec.setProc(idx, proc)
	}
}

func (s *tracedSampler) batches() []*sampler.MiniBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*sampler.MiniBatch(nil), s.kept...)
}

// tracedSource wraps one replica's engine.DataSource: a feature gather
// and the label lookup that follows it form one engine.fetch span.
type tracedSource struct {
	inner engine.DataSource
	rec   *recorder
	proc  int
	smp   *tracedSampler

	mu    sync.Mutex
	open  map[graph.NodeID]float64 // first target id → gather start
	count atomic.Int64
}

func newTracedSource(inner engine.DataSource, rec *recorder, proc int, smp *tracedSampler) *tracedSource {
	if smp != nil {
		smp.lanes = true // set before the engine runs, so no sampling worker reads it yet
	}
	return &tracedSource{inner: inner, rec: rec, proc: proc, smp: smp, open: map[graph.NodeID]float64{}}
}

func (s *tracedSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	s.smp.claim(ids, s.proc)
	start := s.rec.now()
	m, err := s.inner.GatherFeatures(ids)
	// A batch's input ids start with its targets, so the label lookup
	// that follows carries the same first id.
	if len(ids) > 0 {
		s.mu.Lock()
		s.open[ids[0]] = start
		s.mu.Unlock()
	}
	return m, err
}

func (s *tracedSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	start := s.rec.now()
	labels, err := s.inner.TargetLabels(ids)
	if len(ids) > 0 {
		s.mu.Lock()
		if gs, ok := s.open[ids[0]]; ok {
			start = gs
			delete(s.open, ids[0])
		}
		s.mu.Unlock()
	}
	s.rec.add(span{Name: "engine.fetch", Proc: s.proc, Start: start, End: s.rec.now(), ID: s.count.Add(1) - 1})
	return labels, err
}

// memSource stands in for the in-memory DataSource the engine uses by
// default, which is not exported, so a traced run can wrap it: it calls
// the same nn.GatherPooled on the replica's own buffer pool, which the
// engine recycles the rows into.
type memSource struct {
	ds   *graph.Dataset
	bufs *tensor.BufPool
}

func (s *memSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	return nn.GatherPooled(s.bufs, s.ds.Features, ids), nil
}

func (s *memSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	out := make([]int32, len(ids))
	for i, v := range ids {
		out[i] = s.ds.Labels[v]
	}
	return out, nil
}

// busy accumulates calls and time spent in one serving layer; per-row
// layers are too frequent for one span per call.
type busy struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (b *busy) since(t time.Time) {
	b.calls.Add(1)
	b.nanos.Add(int64(time.Since(t)))
}

// tracedFeatures wraps serve.FeatureSource.
type tracedFeatures struct {
	serve.FeatureSource
	b *busy
}

func (f tracedFeatures) Row(id graph.NodeID, dst []float32) ([]float32, error) {
	t := time.Now()
	defer f.b.since(t)
	return f.FeatureSource.Row(id, dst)
}

// tracedCache wraps serve.Cache (installed through serve.WithCache).
type tracedCache struct {
	serve.Cache
	b *busy
}

func (c tracedCache) Get(id graph.NodeID, dst []float32) ([]float32, bool) {
	t := time.Now()
	defer c.b.since(t)
	return c.Cache.Get(id, dst)
}

func (c tracedCache) Put(id graph.NodeID, row []float32) {
	t := time.Now()
	defer c.b.since(t)
	c.Cache.Put(id, row)
}
