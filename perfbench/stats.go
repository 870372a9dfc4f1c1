package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-quantile of xs by the nearest-rank rule: the
// value at sorted index ceil(q·n)−1 (clamped to the sample). xs need not
// be sorted; it is not modified. An empty sample yields NaN.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the nearest-rank index ceil(q·n)−1, clamped to [0, n−1].
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// tailQuantiles are the percentiles a tail is read at, lowest first.
var tailQuantiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured.
const minBeyond = 10

// tail returns the highest percentile in tailQuantiles that has at least
// minBeyond samples beyond its nearest-rank index, with the value there.
// When even the median lacks that support, ok is false and the sample
// maximum is returned as the 1.0-quantile.
func tail(xs []float64) (q, v float64, ok bool) {
	n := len(xs)
	for i := len(tailQuantiles) - 1; i >= 0; i-- {
		tq := tailQuantiles[i]
		if n-1-rankIndex(n, tq) >= minBeyond {
			return tq, nearestRank(xs, tq), true
		}
	}
	return 1, nearestRank(xs, 1), false
}

// interval is a half-open time span [start, end) in seconds.
type interval struct{ start, end float64 }

// coveredLength returns the length of the union of ivs clipped to
// [lo, hi): overlapping children are counted once.
func coveredLength(lo, hi float64, ivs []interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := math.Max(iv.start, lo), math.Min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total := 0.0
	curS, curE := math.Inf(-1), math.Inf(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = math.Max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a parent span's duration minus the part of it its child
// spans cover.
func selfTime(parent interval, children []interval) float64 {
	return (parent.end - parent.start) - coveredLength(parent.start, parent.end, children)
}

// epochCoverage returns each parent span's self time and the share of
// the parents' total length their children cover.
func epochCoverage(parents, children []interval) (self []float64, coverage float64) {
	total, covered := 0.0, 0.0
	for _, p := range parents {
		self = append(self, selfTime(p, children))
		total += p.end - p.start
		covered += coveredLength(p.start, p.end, children)
	}
	if total == 0 {
		return self, math.NaN()
	}
	return self, covered / total
}

// dueRecord is one open-loop request: when it was due, when the
// generator handed it off, and when its answer arrived (all seconds from
// the phase start). Latency counts from due so a stall also charges the
// requests queued behind it; lateness is the generator's own lag.
type dueRecord struct {
	due, sent, done float64
	ok              bool
}

func (r dueRecord) latency() float64  { return r.done - r.due }
func (r dueRecord) lateness() float64 { return r.sent - r.due }

// ratePhase summarises one fixed-rate phase of the open loop.
type ratePhase struct {
	Rate        float64 `json:"rate_rps"`
	Sent        int     `json:"sent"`
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	LatenessMs  float64 `json:"generator_lateness_p99_ms"`
	BacklogMid  int     `json:"backlog_mid"`
	BacklogEnd  int     `json:"backlog_end"`
	BacklogGrew bool    `json:"backlog_grew"`
}

// failedLatencyMs is the latency a failed request enters the percentiles
// at: it misses every limit, and unlike +Inf it survives JSON.
const failedLatencyMs = 1e9

// summarisePhase reduces a phase's records. A failed request counts as
// missing the latency limit. Backlog is the number of requests due but
// unanswered at the phase's midpoint and at its end.
func summarisePhase(rate, length float64, recs []dueRecord) ratePhase {
	p := ratePhase{Rate: rate, Sent: len(recs)}
	lat := make([]float64, 0, len(recs))
	late := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.ok {
			p.Succeeded++
			lat = append(lat, r.latency()*1e3)
		} else {
			p.Failed++
			lat = append(lat, failedLatencyMs)
		}
		late = append(late, r.lateness()*1e3)
	}
	p.P50Ms = nearestRank(lat, 0.5)
	p.P99Ms = nearestRank(lat, 0.99)
	p.LatenessMs = nearestRank(late, 0.99)
	p.BacklogMid = backlogAt(recs, length/2)
	p.BacklogEnd = backlogAt(recs, length)
	p.BacklogGrew = backlogGrowing(p.BacklogMid, p.BacklogEnd, rate)
	return p
}

// backlogAt counts requests due by t whose answer had not arrived by t.
func backlogAt(recs []dueRecord, t float64) int {
	n := 0
	for _, r := range recs {
		if r.due <= t && (!r.ok || r.done > t) {
			n++
		}
	}
	return n
}

// backlogGrowing reports whether the unanswered queue grew over the
// phase: the end backlog exceeds the midpoint backlog by more than what
// 50 ms of arrivals (or two requests) explains. A system keeping up
// holds a backlog of about rate × latency at both points.
func backlogGrowing(mid, end int, rate float64) bool {
	slack := math.Max(2, rate*0.05)
	return float64(end-mid) > slack
}

// maxPassingRate returns the highest phase rate that answered every
// request, kept its p99 within limitMs, and did not grow a backlog.
func maxPassingRate(phases []ratePhase, limitMs float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range phases {
		if p.Failed == 0 && p.Sent > 0 && p.P99Ms <= limitMs && !p.BacklogGrew && p.Rate > best {
			best, ok = p.Rate, true
		}
	}
	return best, ok
}
