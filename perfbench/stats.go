package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is left unchanged; an empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latHist is a log-bucketed latency histogram in µs: fixed memory, and
// quantiles within histStep of the exact ones, interpolated inside a
// bucket.
type latHist struct {
	counts []uint64
	n      uint64
}

const (
	histMin  = 0.1  // µs; bucket 0 holds everything below
	histStep = 1.01 // bucket width ratio
	// histBuckets reach past 100 s.
	histBuckets = 2100
)

func newLatHist() *latHist { return &latHist{counts: make([]uint64, histBuckets)} }

func histLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return histMin * math.Pow(histStep, float64(i-1))
}

func (h *latHist) add(x float64) {
	i := 0
	if x >= histMin {
		i = 1 + int(math.Log(x/histMin)/math.Log(histStep))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func mergeHists(eps []*episode, get func(*episode) *latHist) *latHist {
	out := newLatHist()
	for _, ep := range eps {
		out.merge(get(ep))
	}
	return out
}

// blockQuantile splits the episodes, in order, into blocks of at least
// minBlock samples, takes the q-quantile of each and returns the median
// over blocks, with the block count. A stretch of machine noise that spoils
// a few blocks moves it less than it would a quantile of the pooled run.
// Samples left over after the last full block join it.
func blockQuantile(eps []*episode, get func(*episode) *latHist, q float64) (float64, int) {
	var qs []float64
	var last *latHist
	cur := newLatHist()
	for _, ep := range eps {
		cur.merge(get(ep))
		if cur.n >= minBlock {
			qs = append(qs, cur.quantile(q))
			last, cur = cur, newLatHist()
		}
	}
	switch {
	case cur.n == 0:
	case last == nil:
		return cur.quantile(q), 1
	default:
		last.merge(cur)
		qs[len(qs)-1] = last.quantile(q)
	}
	return median(qs), len(qs)
}

// minBlock gives a block's p90 at least ten samples beyond it.
const minBlock = 100

// quantile returns the q-quantile, interpolating linearly inside the
// bucket that holds it; an empty histogram yields 0.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histLower(histBuckets)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix64 is the splitmix64 finalizer: it derives independent sub-seeds
// from (seed, episode, index) tuples.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed uint64, parts ...int) uint64 {
	h := mix64(seed)
	for _, p := range parts {
		h = mix64(h ^ uint64(int64(p)))
	}
	return h
}
