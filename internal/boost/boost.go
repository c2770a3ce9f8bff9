// Package boost implements the confidence-rated AdaBoost machinery of
// Schapire and Singer [27] that the training algorithm of Sec. 5 is built
// on: the Z objective (Eq. 8), the optimal-α line search, and the
// training-weight update (Eq. 6, Fig. 2 of the paper).
//
// The booster is agnostic to what the weak classifiers are; the trainer in
// internal/core evaluates query-sensitive classifiers Q̃_{F,V} on training
// triples and hands this package the per-example real-valued outputs.
package boost

import (
	"fmt"
	"math"

	"qse/internal/par"
)

// minParallelStep is the example count below which Step's elementwise
// updates stay serial; above it the exp evaluations are fanned out over
// GOMAXPROCS goroutines. Summations always run serially in index order, so
// Step is bit-identical regardless of the worker count.
const minParallelStep = 4096

// MaxAlpha caps the α line search. A classifier that is perfect on the
// weighted sample would otherwise push α to infinity; capping keeps weights
// finite and matches the usual smoothing advice in [27].
const MaxAlpha = 20.0

// Z computes Eq. 8: sum_i w_i * exp(-alpha * y_i * h_i), where margins[i]
// = y_i * h_i. weights must sum to 1 for the "Z < 1 is beneficial"
// interpretation, but the function itself does not require it.
func Z(weights, margins []float64, alpha float64) float64 {
	if len(weights) != len(margins) {
		panic(fmt.Sprintf("boost: %d weights vs %d margins", len(weights), len(margins)))
	}
	var z float64
	for i, w := range weights {
		z += w * math.Exp(-alpha*margins[i])
	}
	return z
}

// OptimalAlpha minimizes Z over alpha >= 0 for the given weighted margins,
// returning the minimizing alpha and the corresponding Z value.
//
// Z(α) is strictly convex in α (Z” = Σ w m² e^{-αm} > 0 unless all margins
// are zero), so the minimum over α >= 0 is at α = 0 when Z'(0) >= 0 (the
// classifier does not help) and otherwise at the unique root of Z', found
// by doubling + bisection. α is capped at MaxAlpha.
//
// We restrict to α >= 0: a classifier with negative optimal α is an
// anti-predictor, and admitting it would make the coordinate weights
// A_i(q) of Eq. 10 potentially negative, so D_out would no longer be a
// non-negative dissimilarity. The trainer simply never selects such
// classifiers (their Z at α = 0 is 1, never the round's minimum when any
// useful classifier exists).
//
// Every weight must be finite, as a Booster's always are.
func OptimalAlpha(weights, margins []float64) (alpha, z float64) {
	if len(weights) != len(margins) {
		panic(fmt.Sprintf("boost: %d weights vs %d margins", len(weights), len(margins)))
	}
	// Z' sums -w·m·e^{-αm} in index order. A zero margin's term is ±0
	// (w is finite), and subtracting ±0 leaves the running sum's bits as
	// they are: the sum starts at +0 and never becomes -0 (x - x is +0,
	// and a nonzero difference never rounds to zero). So the ~40
	// evaluations of Z' below skip the zero margins, a third or more of a
	// gated classifier's, and read w·m, which w*m*e rounds first, from
	// one pass.
	terms := make([]wmTerm, 0, len(margins))
	for i, m := range margins {
		if m != 0 {
			terms = append(terms, wmTerm{wm: weights[i] * m, m: m})
		}
	}
	dz := func(a float64) float64 {
		var d float64
		for _, t := range terms {
			d -= t.wm * math.Exp(-a*t.m)
		}
		return d
	}
	if dz(0) >= 0 {
		return 0, Z(weights, margins, 0)
	}
	// Double until the derivative turns positive or we hit the cap.
	hi := 1.0
	for dz(hi) < 0 {
		hi *= 2
		if hi >= MaxAlpha {
			hi = MaxAlpha
			break
		}
	}
	lo := 0.0
	if dz(hi) < 0 {
		// Still descending at the cap: take the cap.
		return hi, Z(weights, margins, hi)
	}
	for iter := 0; iter < 60 && hi-lo > 1e-10; iter++ {
		mid := (lo + hi) / 2
		if dz(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	alpha = (lo + hi) / 2
	return alpha, Z(weights, margins, alpha)
}

// wmTerm is one nonzero margin m of OptimalAlpha with its w·m.
type wmTerm struct{ wm, m float64 }

// Booster maintains the AdaBoost training-weight distribution over
// examples and the accumulated strong-classifier outputs.
type Booster struct {
	// Workers caps Step's fork-join parallelism: 0 means all cores
	// (GOMAXPROCS), 1 forces serial execution. Results are bit-identical
	// for every setting.
	Workers int

	labels  []int     // y_i in {-1, +1}
	weights []float64 // w_{i,j}, kept normalized to sum 1
	strong  []float64 // H(x_i) = sum_j alpha_j h_j(x_i)
	rounds  int
}

// New creates a Booster over examples with the given labels (each must be
// -1 or +1). Weights start uniform (w_{i,1} = 1/t, Fig. 2).
func New(labels []int) (*Booster, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("boost: no training examples")
	}
	for i, y := range labels {
		if y != 1 && y != -1 {
			return nil, fmt.Errorf("boost: label[%d] = %d, want ±1", i, y)
		}
	}
	b := &Booster{
		labels:  append([]int(nil), labels...),
		weights: make([]float64, len(labels)),
		strong:  make([]float64, len(labels)),
	}
	for i := range b.weights {
		b.weights[i] = 1 / float64(len(labels))
	}
	return b, nil
}

// N returns the number of training examples.
func (b *Booster) N() int { return len(b.labels) }

// Rounds returns the number of committed boosting rounds.
func (b *Booster) Rounds() int { return b.rounds }

// Weights returns the current weight distribution. The returned slice is
// the booster's own; callers must not modify it.
func (b *Booster) Weights() []float64 { return b.weights }

// Margins converts raw weak-classifier outputs h_i to margins y_i * h_i.
func (b *Booster) Margins(outputs []float64) []float64 {
	if len(outputs) != len(b.labels) {
		panic(fmt.Sprintf("boost: %d outputs vs %d examples", len(outputs), len(b.labels)))
	}
	m := make([]float64, len(outputs))
	for i, h := range outputs {
		m[i] = float64(b.labels[i]) * h
	}
	return m
}

// Step commits a weak classifier: it updates the training weights per
// Eq. 6 with the given outputs and alpha, accumulates the strong
// classifier, and returns the normalization factor z_j. A z below 1 means
// the round reduced the training loss.
func (b *Booster) Step(outputs []float64, alpha float64) float64 {
	if len(outputs) != len(b.labels) {
		panic(fmt.Sprintf("boost: %d outputs vs %d examples", len(outputs), len(b.labels)))
	}
	// The exp evaluations are elementwise writes to disjoint slots, so they
	// parallelize without changing any bit of the result; the z sum runs
	// serially in index order to keep the floating-point association fixed.
	par.ForWorkers(b.Workers, len(b.weights), minParallelStep, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.weights[i] *= math.Exp(-alpha * float64(b.labels[i]) * outputs[i])
		}
	})
	var z float64
	for _, w := range b.weights {
		z += w
	}
	if z <= 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		panic(fmt.Sprintf("boost: degenerate normalization factor %v", z))
	}
	par.ForWorkers(b.Workers, len(b.weights), minParallelStep, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.weights[i] /= z
			b.strong[i] += alpha * outputs[i]
		}
	})
	b.rounds++
	return z
}

// TrainingError returns the unweighted misclassification rate of the
// current strong classifier on the training examples: sign disagreements
// count 1, zero outputs count 1/2 (random-guess convention).
func (b *Booster) TrainingError() float64 {
	var bad float64
	for i, h := range b.strong {
		y := b.labels[i]
		switch {
		case h == 0:
			bad += 0.5
		case (h > 0) != (y > 0):
			bad++
		}
	}
	return bad / float64(len(b.strong))
}

// WeightedError returns the current-weight misclassification rate of the
// given outputs: the weak-learner selection criterion the paper uses to
// pick the best interval V per 1D embedding ("for each range we measure
// the training error ... we weigh each training triple by its current
// weight"). Sign disagreements accumulate the full weight; zero outputs
// (gated-off or tie) accumulate half.
func (b *Booster) WeightedError(outputs []float64) float64 {
	if len(outputs) != len(b.labels) {
		panic(fmt.Sprintf("boost: %d outputs vs %d examples", len(outputs), len(b.labels)))
	}
	var bad float64
	for i, h := range outputs {
		y := b.labels[i]
		switch {
		case h == 0:
			bad += 0.5 * b.weights[i]
		case (h > 0) != (y > 0):
			bad += b.weights[i]
		}
	}
	return bad
}
