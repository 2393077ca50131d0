package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles op_ms_tail may report, highest
// first; tailPercentile picks the highest one a sample set can support.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond the tail percentile
// for it to be reported: fewer and the figure is one or two outliers.
const minBeyondTail = 10

// rankOf is the 1-based nearest rank of percentile p in n sorted samples.
// The small slack keeps products like 99.9/100*10000 from rounding up
// past an exact rank.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyondTail of n samples beyond it, and how many lie beyond. Below
// 2*minBeyondTail samples no percentile qualifies and the median is
// returned with what it has.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - rankOf(p, n); b >= minBeyondTail {
			return p, b
		}
	}
	p = tailLadder[len(tailLadder)-1]
	return p, n - rankOf(p, n)
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(p, len(xs))-1]
}

// median returns the middle value of xs (mean of the middle two for an
// even count; 0 when empty). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencySummary is the median and tail of one latency sample set.
type latencySummary struct {
	P50, Tail  float64
	TailPct    float64
	Samples    int
	TailBeyond int
	// Chunks is how many chunks of Samples the figures are medians
	// over (summarizeChunks); 0 for a whole sample set. ChunkP50s and
	// ChunkTails are their figures in run order.
	Chunks                int
	ChunkP50s, ChunkTails []float64
}

func summarize(ms []float64) latencySummary {
	xs := append([]float64(nil), ms...)
	p, beyond := tailPercentile(len(xs))
	return latencySummary{
		P50:        median(xs),
		Tail:       percentile(xs, p),
		TailPct:    p,
		Samples:    len(xs),
		TailBeyond: beyond,
	}
}

// summarizeChunks splits ms, in the order the operations ran, into
// consecutive chunks of size samples and returns the median over chunks
// of each chunk's median and tail; a last, partial chunk is left out.
// Every chunk has the same size, so the tail percentile
// (tailPercentile) is fixed by the workload's chunk size and does not
// move when a faster or slower run completes more or fewer operations.
// A burst of interference from outside the process that covers less
// than half the chunks then moves neither figure, where it would own a
// whole-run tail. Fewer than size samples are summarized whole.
func summarizeChunks(ms []float64, size int) latencySummary {
	k := len(ms) / max(size, 1)
	if k == 0 {
		return summarize(ms)
	}
	p, beyond := tailPercentile(size)
	s := latencySummary{TailPct: p, Samples: size, TailBeyond: beyond, Chunks: k}
	for c := range k {
		xs := append([]float64(nil), ms[c*size:(c+1)*size]...)
		s.ChunkP50s = append(s.ChunkP50s, median(xs))
		s.ChunkTails = append(s.ChunkTails, percentile(xs, p))
	}
	s.P50 = median(append([]float64(nil), s.ChunkP50s...))
	s.Tail = median(append([]float64(nil), s.ChunkTails...))
	return s
}

// ratio is num/den, 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
