// Package dtw implements Dynamic Time Warping over multi-dimensional time
// series: the unconstrained variant, the Sakoe–Chiba constrained variant
// used as the paper's exact distance for the time-series experiments
// ("constrained Dynamic Time Warping, with a warping length δ = 10% of the
// total length of the shortest sequence under comparison", after [32]), and
// the LB_Keogh lower bound used by the comparator index of [32].
//
// A Series is a [time][dimension] slice; the local cost between two samples
// is their Euclidean distance. DTW with any warping constraint is symmetric
// and non-negative but violates the triangle inequality, which is exactly
// why the paper needs embedding-based indexing for this space.
package dtw

import (
	"fmt"
	"math"
)

// Series is a multi-dimensional time series: Series[t] is the sample at
// time t; all samples must share the same dimensionality.
type Series [][]float64

// Dims returns the dimensionality of the series (0 for an empty series).
func (s Series) Dims() int {
	if len(s) == 0 {
		return 0
	}
	return len(s[0])
}

// Validate checks the series is rectangular with at least one sample.
func (s Series) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("dtw: empty series")
	}
	d := len(s[0])
	if d == 0 {
		return fmt.Errorf("dtw: zero-dimensional samples")
	}
	for t, sample := range s {
		if len(sample) != d {
			return fmt.Errorf("dtw: ragged series: sample %d has %d dims, want %d", t, len(sample), d)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	for t, sample := range s {
		out[t] = append([]float64(nil), sample...)
	}
	return out
}

// Normalize returns a copy with the per-dimension mean subtracted — the
// normalization applied to the dataset of [32] ("normalized by subtracting
// the average value in each dimension").
func (s Series) Normalize() Series {
	out := s.Clone()
	if len(out) == 0 {
		return out
	}
	d := out.Dims()
	means := make([]float64, d)
	for _, sample := range out {
		for j, v := range sample {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(len(out))
	}
	for _, sample := range out {
		for j := range sample {
			sample[j] -= means[j]
		}
	}
	return out
}

func sampleDist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// DTW returns the unconstrained dynamic time warping distance between a and
// b: the minimum, over all monotonic alignments, of the summed Euclidean
// distances of aligned samples.
func DTW(a, b Series) float64 {
	return dtwWindow(a, b, -1)
}

// Constrained returns the Sakoe–Chiba constrained DTW distance with warping
// window delta expressed as a fraction of the length of the shorter series
// (the paper uses delta = 0.10). The window is widened to |len(a)-len(b)|
// when necessary so an alignment always exists.
func Constrained(a, b Series, delta float64) float64 {
	if delta < 0 || delta > 1 {
		panic(fmt.Sprintf("dtw: delta %v out of [0,1]", delta))
	}
	short := len(a)
	if len(b) < short {
		short = len(b)
	}
	w := int(math.Ceil(delta * float64(short)))
	return ConstrainedWindow(a, b, w)
}

// ConstrainedWindow is Constrained with an explicit window w in samples.
func ConstrainedWindow(a, b Series, w int) float64 {
	if w < 0 {
		panic("dtw: negative window")
	}
	return dtwWindow(a, b, w)
}

// dtwWindow runs the DP. w < 0 means unconstrained. The effective window is
// max(w, |n-m|) so the corner cell is always reachable. Rectangular inputs
// whose samples are all finite take the banded kernel (kernel.go); any
// other input takes scalarDTW, which defines the bits the kernel returns.
func dtwWindow(a, b Series, w int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == 0 && m == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := a.Dims()
	if d != b.Dims() {
		panic(fmt.Sprintf("dtw: dimensionality mismatch %d vs %d", d, b.Dims()))
	}
	if w >= 0 {
		diff := n - m
		if diff < 0 {
			diff = -diff
		}
		if w < diff {
			w = diff
		}
	}
	return bandDTW(a, b, w)
}

// scalarDTW is the DP one cell at a time over two full rows, with
// float comparisons and the +Inf skip. It serves the inputs the banded
// kernel does not take (a NaN or ±Inf sample, or a ragged series), on
// which it is the reference: its NaN propagation follows the order of
// the comparisons below. w is already widened (< 0 for unconstrained).
func scalarDTW(a, b Series, w int) float64 {
	n, m := len(a), len(b)
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		lo, hi := 1, m
		if w >= 0 {
			lo = i - w
			if lo < 1 {
				lo = 1
			}
			hi = i + w
			if hi > m {
				hi = m
			}
		}
		for j := 0; j <= m; j++ {
			curr[j] = inf
		}
		for j := lo; j <= hi; j++ {
			best := prev[j] // insertion
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if math.IsInf(best, 1) {
				continue
			}
			curr[j] = best + sampleDist(a[i-1], b[j-1])
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// Envelope returns the running lower and upper envelopes of s over a window
// of w samples on each side: lower[t][d] = min over |j-t| <= w of s[j][d],
// and likewise for upper with max. It is the precomputation behind
// LB_Keogh.
func Envelope(s Series, w int) (lower, upper Series) {
	if w < 0 {
		panic("dtw: negative envelope window")
	}
	n := len(s)
	d := s.Dims()
	lower = make(Series, n)
	upper = make(Series, n)
	for t := 0; t < n; t++ {
		lo := make([]float64, d)
		up := make([]float64, d)
		for k := range lo {
			lo[k] = math.Inf(1)
			up[k] = math.Inf(-1)
		}
		jLo, jHi := t-w, t+w
		if jLo < 0 {
			jLo = 0
		}
		if jHi >= n {
			jHi = n - 1
		}
		for j := jLo; j <= jHi; j++ {
			for k := 0; k < d; k++ {
				v := s[j][k]
				if v < lo[k] {
					lo[k] = v
				}
				if v > up[k] {
					up[k] = v
				}
			}
		}
		lower[t] = lo
		upper[t] = up
	}
	return lower, upper
}

// LBKeogh returns the Keogh lower bound of the windowed DTW distance between
// query q and the series whose envelopes are (lower, upper), computed with
// the same window. All three series must have the same length and
// dimensionality. The bound is
//
//	sum_t sqrt( sum_d clip(q[t][d] outside [lower,upper])^2 )
//
// which never exceeds ConstrainedWindow(q, s, w) for the s that produced the
// envelopes (each q[t] is aligned to at least one sample within the window,
// and that sample lies inside the envelope in every dimension).
func LBKeogh(q, lower, upper Series) float64 {
	if len(q) != len(lower) || len(q) != len(upper) {
		panic(fmt.Sprintf("dtw: LBKeogh length mismatch %d/%d/%d", len(q), len(lower), len(upper)))
	}
	var total float64
	for t := range q {
		var sum float64
		for k := range q[t] {
			v := q[t][k]
			var d float64
			if v > upper[t][k] {
				d = v - upper[t][k]
			} else if v < lower[t][k] {
				d = lower[t][k] - v
			}
			sum += d * d
		}
		total += math.Sqrt(sum)
	}
	return total
}

// Resample returns s linearly resampled to n samples (n >= 1). It is used
// by the dataset generator (time compression/decompression keeps the stored
// length fixed) and by approximate filters that need equal-length inputs.
func Resample(s Series, n int) Series {
	if n < 1 {
		panic("dtw: Resample to n < 1")
	}
	if len(s) == 0 {
		return nil
	}
	d := s.Dims()
	out := make(Series, n)
	if len(s) == 1 {
		for t := range out {
			out[t] = append([]float64(nil), s[0]...)
		}
		return out
	}
	for t := 0; t < n; t++ {
		var pos float64
		if n > 1 {
			pos = float64(t) * float64(len(s)-1) / float64(n-1)
		}
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		sample := make([]float64, d)
		if i+1 < len(s) {
			for k := 0; k < d; k++ {
				sample[k] = s[i][k]*(1-frac) + s[i+1][k]*frac
			}
		} else {
			copy(sample, s[len(s)-1])
		}
		out[t] = sample
	}
	return out
}
