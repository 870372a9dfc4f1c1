package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := nearestRank(xs, tc.q); got != tc.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("nearestRank reordered its input")
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Fatal("empty sample must give NaN")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{10, 1, false},     // the median has only 5 beyond it: the maximum
		{21, 0.5, true},    // rank 11: exactly 10 beyond
		{40, 0.75, true},   // rank 30: 10 beyond
		{99, 0.75, true},   // p90 is rank 90: only 9 beyond
		{100, 0.9, true},   // rank 90: 10 beyond
		{1000, 0.99, true}, // rank 990: 10 beyond
		{10000, 0.999, true},
	} {
		q, v, ok := tail(seq(tc.n))
		if ok != tc.ok || q != tc.wantQ {
			t.Errorf("n=%d: tail quantile %v ok=%v, want %v ok=%v", tc.n, q, ok, tc.wantQ, tc.ok)
			continue
		}
		if v != nearestRank(seq(tc.n), q) {
			t.Errorf("n=%d: tail value %v is not the nearest-rank value", tc.n, v)
		}
	}
}

func TestCoveredLengthUnion(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
		ivs    []interval
		want   float64
	}{
		{"empty", 0, 10, nil, 0},
		{"disjoint", 0, 10, []interval{{1, 2}, {4, 6}}, 3},
		{"overlap counted once", 0, 10, []interval{{1, 5}, {3, 7}}, 6},
		{"nested", 0, 10, []interval{{1, 9}, {2, 3}, {4, 5}}, 8},
		{"touching", 0, 10, []interval{{1, 2}, {2, 3}}, 2},
		{"clipped to parent", 2, 8, []interval{{0, 3}, {7, 12}}, 2},
		{"outside parent", 2, 8, []interval{{8, 9}, {0, 1}}, 0},
		{"unsorted", 0, 10, []interval{{6, 8}, {0, 1}, {7, 9}}, 4},
	} {
		if got := coveredLength(tc.lo, tc.hi, tc.ivs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: covered %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := selfTime(interval{0, 10}, []interval{{1, 5}, {3, 7}}); math.Abs(got-4) > 1e-12 {
		t.Errorf("self time %v, want 4", got)
	}
}

func TestCoverageDropsWithoutChild(t *testing.T) {
	// Two 10 s epochs, each with a 1 s sample, a 1 s fetch and a BatchHook
	// at 9 s into it; the replayed step (6 s) ends at the hook, leaving
	// 2 s per epoch to the engine itself.
	spans := []span{
		{Name: "engine.epoch", Start: 0, End: 10, Parent: -1},
		{Name: "sampler.sample", Start: 0, End: 1, Parent: 0},
		{Name: "engine.fetch", Start: 1, End: 2, Parent: 0},
		{Name: "engine.hook", Start: 9, End: 9, Parent: 0, ID: 1},
		{Name: "engine.epoch", Start: 10, End: 20, Parent: -1},
		{Name: "sampler.sample", Start: 10, End: 11, Parent: 4},
		{Name: "engine.fetch", Start: 11, End: 12, Parent: 4},
		{Name: "engine.hook", Start: 19, End: 19, Parent: 4, ID: 2},
	}
	steps := replayedSteps(spans, 6)
	if len(steps) != 2 || steps[1] != (span{Name: "nn.step", Start: 13, End: 19, Parent: 4, ID: 2}) {
		t.Fatalf("replayed steps %+v", steps)
	}
	spans = append(spans, steps...)
	epochs := byName(spans, "engine.epoch")
	for _, tc := range []struct {
		children []string
		self     float64
		coverage float64
	}{
		{[]string{"sampler.sample", "engine.fetch", "nn.step"}, 2, 0.8},
		{[]string{"sampler.sample", "nn.step"}, 3, 0.7},
		{[]string{"sampler.sample", "engine.fetch"}, 8, 0.2},
	} {
		self, coverage := epochCoverage(epochs, byName(spans, tc.children...))
		if len(self) != 2 || math.Abs(self[0]-tc.self) > 1e-12 || math.Abs(self[1]-tc.self) > 1e-12 {
			t.Errorf("%v: self times %v, want %v each", tc.children, self, tc.self)
		}
		if math.Abs(coverage-tc.coverage) > 1e-12 {
			t.Errorf("%v: coverage %v, want %v", tc.children, coverage, tc.coverage)
		}
	}
}

func TestDueTimeAccounting(t *testing.T) {
	// A 50 ms stall at t=0.1 s delays the request due then and the one
	// queued behind it; timing from the send time would hide the second.
	recs := []dueRecord{
		{due: 0.00, sent: 0.000, done: 0.005, ok: true},
		{due: 0.10, sent: 0.100, done: 0.155, ok: true},
		{due: 0.11, sent: 0.150, done: 0.160, ok: true},
		{due: 0.20, sent: 0.201, done: 0.206, ok: true},
	}
	wantLat := []float64{0.005, 0.055, 0.050, 0.006}
	wantLate := []float64{0, 0, 0.040, 0.001}
	for i, r := range recs {
		if math.Abs(r.latency()-wantLat[i]) > 1e-9 || math.Abs(r.lateness()-wantLate[i]) > 1e-9 {
			t.Errorf("record %d: latency %v lateness %v, want %v %v", i, r.latency(), r.lateness(), wantLat[i], wantLate[i])
		}
	}
	p := summarisePhase(20, 0.25, recs)
	if p.Sent != 4 || p.Succeeded != 4 || p.Failed != 0 {
		t.Fatalf("counts %+v", p)
	}
	if math.Abs(p.P99Ms-55) > 1e-6 || math.Abs(p.P50Ms-6) > 1e-6 {
		t.Errorf("p50 %v p99 %v, want 6 and 55 ms", p.P50Ms, p.P99Ms)
	}
	// A failed request misses every latency limit.
	recs = append(recs, dueRecord{due: 0.21, sent: 0.21, done: 0.22, ok: false})
	if p := summarisePhase(20, 0.25, recs); p.Failed != 1 || p.P99Ms != failedLatencyMs {
		t.Errorf("failed request: %+v", p)
	}
}

func TestBacklog(t *testing.T) {
	// Keeping up: each request answered 10 ms after it is due.
	var keep, fall []dueRecord
	for i := 0; i < 100; i++ {
		due := float64(i) / 100
		keep = append(keep, dueRecord{due: due, sent: due, done: due + 0.01, ok: true})
		// Falling behind: service takes 15 ms but requests arrive every 10 ms.
		fall = append(fall, dueRecord{due: due, sent: due, done: 0.015 * float64(i+1), ok: true})
	}
	if p := summarisePhase(100, 1, keep); p.BacklogGrew || p.BacklogEnd > 1 {
		t.Errorf("steady phase flagged: %+v", p)
	}
	if p := summarisePhase(100, 1, fall); !p.BacklogGrew {
		t.Errorf("growing backlog missed: mid %d end %d", p.BacklogMid, p.BacklogEnd)
	}
	if backlogGrowing(10, 12, 100) || !backlogGrowing(10, 16, 100) {
		t.Error("slack at 100 rps is 5 requests")
	}
}

func TestMaxPassingRate(t *testing.T) {
	phases := []ratePhase{
		{Rate: 100, Sent: 500, P99Ms: 20},
		{Rate: 200, Sent: 400, P99Ms: 40},
		{Rate: 300, Sent: 600, P99Ms: 90, BacklogGrew: true}, // backlog disqualifies
		{Rate: 250, Sent: 500, P99Ms: 150},                   // over the limit
		{Rate: 225, Sent: 450, P99Ms: 60, Failed: 1},         // a failure disqualifies
		{Rate: 212, Sent: 420, P99Ms: 70},
	}
	got, ok := maxPassingRate(phases, 100)
	if !ok || got != 212 {
		t.Errorf("max passing rate %v ok=%v, want 212", got, ok)
	}
	if _, ok := maxPassingRate(phases[2:5], 100); ok {
		t.Error("no phase passes, yet a rate was chosen")
	}
}
