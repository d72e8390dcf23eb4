package main

import (
	"math"
	"sort"
	"time"
)

// tail is one percentile read off a benchmark's own raw samples.
type tail struct {
	Q      float64 // percentile, in (0, 100]
	Value  float64 // the sample at the nearest rank
	N      int     // samples the percentile was read from
	Beyond int     // samples ranked above it
}

// nearestRank returns the q-th percentile of sorted by the nearest-rank
// rule: the smallest sample with at least q% of the samples at or below
// it, i.e. sorted[ceil(q/100*n)-1]. Beyond counts the samples ranked after
// it, so "p99 with 10 beyond" needs n >= 1000.
func nearestRank(sorted []float64, q float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{Q: q}
	}
	// The epsilon keeps float error from pushing an exact rank (99.9% of
	// 1000) up by one.
	rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return tail{Q: q, Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// percentiles sorts a copy of samples and reads the median and the tail
// percentile q from it.
func percentiles(samples []float64, q float64) (p50, tl tail) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return nearestRank(s, 50), nearestRank(s, q)
}

// Operation kinds with a latency sample.
const (
	kindSave = iota // sync save, until the store-durable ack
	kindAck         // async save, until the NVM ack
	kindLag         // async save, from the NVM ack until store durable
	kindLoad        // verified restore, byte-compare included
)

// sample is one operation's latency, with the pool item it carried and
// when it ended, which places it in a window.
type sample struct {
	kind int
	item int
	end  time.Time
	ms   float64
}

// windows is how many equal windows the measured interval is cut into.
// The end-to-end metrics are read from the calmer half of them (see calm).
const windows = 30

// window returns the window of [start, start+length) that t falls in.
func window(t, start time.Time, length time.Duration) int {
	i := int(float64(t.Sub(start)) / (float64(length) / windows))
	return min(max(i, 0), windows-1)
}

// calm marks the calmer half of the measured interval's windows: the
// half in which the operations made the most progress. Each operation is
// worth the run's median latency for the same kind of operation on the
// same pool item, spread evenly over the time it actually took, so a
// window's pace is how many operations' worth of work was done in it —
// normalised by item, so a window does not look slow just because it held
// the larger checkpoints. Contention from outside the benchmark process —
// another tenant of the host, CPU steal — only ever slows operations down,
// so on a shared host the calmer half measures the program rather than
// its neighbours.
func calm(ss []sample, start time.Time, length time.Duration) (keep [windows]bool) {
	type key struct{ kind, item int }
	byKey := map[key][]float64{}
	for _, s := range ss {
		k := key{s.kind, s.item}
		byKey[k] = append(byKey[k], s.ms)
	}
	ref := map[key]float64{}
	for k, v := range byKey {
		sort.Float64s(v)
		ref[k] = nearestRank(v, 50).Value
	}
	var pace [windows]float64
	w := float64(length) / windows
	for _, s := range ss {
		took := s.ms * 1e6
		if took <= 0 {
			continue
		}
		e := float64(s.end.Sub(start))
		b := e - took
		for i := max(0, int(b/w)); i < windows && float64(i)*w < e; i++ {
			if lo, hi := math.Max(b, float64(i)*w), math.Min(e, float64(i+1)*w); hi > lo {
				pace[i] += (hi - lo) / took * ref[key{s.kind, s.item}]
			}
		}
	}
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pace[order[a]] > pace[order[b]] })
	for _, i := range order[:windows/2] {
		keep[i] = true
	}
	return keep
}

// latencies returns the latencies of the kind's samples that ended in a
// kept window.
func latencies(ss []sample, kind int, keep [windows]bool, start time.Time, length time.Duration) []float64 {
	var out []float64
	for _, s := range ss {
		if s.kind == kind && keep[window(s.end, start, length)] {
			out = append(out, s.ms)
		}
	}
	return out
}

// windowRates returns the operation rate and byte rate of ds over the
// kept windows of [start, start+length). Each operation is spread over
// the windows its interval overlaps, in proportion to the overlap, so the
// rates are not quantized to whole operations per window.
func windowRates(ds []done, keep [windows]bool, start time.Time, length time.Duration) (ops, bytes float64) {
	if length <= 0 {
		return 0, 0
	}
	var n, b float64
	kept := 0
	w := float64(length) / windows
	for i := range keep {
		if keep[i] {
			kept++
		}
	}
	for _, d := range ds {
		s, e := float64(d.start.Sub(start)), float64(d.end.Sub(start))
		if e <= s {
			s = e - 1
		}
		for i := int(math.Max(0, math.Floor(s/w))); i < windows && float64(i)*w < e; i++ {
			lo, hi := math.Max(s, float64(i)*w), math.Min(e, float64(i+1)*w)
			if hi <= lo || !keep[i] {
				continue
			}
			f := (hi - lo) / (e - s)
			n += f
			b += f * float64(d.bytes)
		}
	}
	secs := float64(kept) * w / 1e9
	return n / secs, b / secs
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
