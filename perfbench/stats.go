package main

import (
	"slices"
	"time"
)

// Percentiles are nearest-rank on the sorted samples. The sizes give
// every p99 at least 1,000 samples (ten or more beyond it); a p50 needs
// minP50Samples, or the workload takes it from a probe instead.
const minP50Samples = 40

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// epoch is the time origin of latency samples.
var epoch = time.Now()

// chunks is how many equal stretches of a phase a p50 is taken over.
const chunks = 5

// series is a latency sample (ms) with each observation's completion
// time, so a percentile can be taken per stretch of the phase: the
// median of the stretches' percentiles lets a transient stall on the
// shared machine move one stretch, not the reported value.
type series struct {
	ms []float64
	at []float64 // seconds since epoch
}

// add records an observation that started at start and ended now.
func (s *series) add(start time.Time) { s.addAt(start, time.Now()) }

func (s *series) addAt(start, end time.Time) {
	s.ms = append(s.ms, float64(end.Sub(start).Nanoseconds())/1e6)
	s.at = append(s.at, end.Sub(epoch).Seconds())
}

func (s *series) merge(o series) {
	s.ms = append(s.ms, o.ms...)
	s.at = append(s.at, o.at...)
}

func (s series) p50() float64 { return s.quantile(0.50, minP50Samples) }

// p99 is taken per stretch only when each stretch can hold 1,000
// samples, ten or more beyond its p99.
func (s series) p99() float64 { return s.quantile(0.99, 1000) }

// quantile is the median over the stretches of their q-quantile when
// the series has perChunk samples per stretch, else the q-quantile of
// the whole series.
func (s series) quantile(q float64, perChunk int) float64 {
	if len(s.ms) < chunks*perChunk {
		return percentile(s.ms, q)
	}
	lo, hi := slices.Min(s.at), slices.Max(s.at)
	parts := make([][]float64, chunks)
	for i, at := range s.at {
		c := min(chunks-1, int(float64(chunks)*(at-lo)/max(hi-lo, 1e-9)))
		parts[c] = append(parts[c], s.ms[i])
	}
	var qs []float64
	for _, p := range parts {
		if len(p) > 0 {
			qs = append(qs, percentile(p, q))
		}
	}
	return median(qs)
}

// put stores a metric and the number of samples behind it.
func (r *runCtx) put(m map[string]metric, name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit}
	r.sampled(name, n)
}

// putLatency stores the p50 (and, when p99Name is set, the p99) of a
// latency series in milliseconds.
func (r *runCtx) putLatency(m map[string]metric, p50Name, p99Name string, s series) {
	r.put(m, p50Name, "ms", s.p50(), len(s.ms))
	if p99Name != "" {
		r.put(m, p99Name, "ms", s.p99(), len(s.ms))
	}
}
