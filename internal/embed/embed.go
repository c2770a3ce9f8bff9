// Package embed implements the simple one-dimensional embeddings of
// Sec. 3.1 — reference-object embeddings F^r(x) = D_X(x, r) (Eq. 1,
// Lipschitz/vantage style [15]) and FastMap-style pivot-pair "line
// projection" embeddings F^{x1,x2} (Eq. 2) — together with the
// triple-classification view of Sec. 3.2: every embedding F induces a
// classifier F̃(q,a,b) = |F(q)−F(b)| − |F(q)−F(a)| (Eq. 3) whose sign
// predicts whether q is closer to a or to b.
//
// A 1D embedding is described by a Def that references candidate objects by
// index, so the same Def can be evaluated either against precomputed
// distance matrices during training (no oracle calls) or against the live
// distance oracle at query time. Defs carry a robust scale so that the
// real-valued classifier outputs fed to AdaBoost are comparable across
// embeddings; scaling a 1D embedding by a positive constant does not change
// which triples it classifies correctly.
package embed

import (
	"fmt"
	"math"

	"qse/internal/space"
)

// Kind distinguishes the two 1D embedding families.
type Kind uint8

const (
	// KindReference is F^r(x) = D_X(x, r) for a reference object r (Eq. 1).
	KindReference Kind = iota
	// KindPivot is the FastMap line projection onto the "line" x1x2 (Eq. 2).
	KindPivot
)

func (k Kind) String() string {
	switch k {
	case KindReference:
		return "reference"
	case KindPivot:
		return "pivot"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Def describes a 1D embedding in terms of candidate-object indexes.
type Def struct {
	Kind Kind
	// A is the reference object for KindReference, or the first pivot for
	// KindPivot. B is the second pivot (unused for KindReference).
	A, B int
	// PivotDist caches D_X(c[A], c[B]) for KindPivot. It must be positive.
	PivotDist float64
	// Scale divides the raw embedding value; it must be positive. A robust
	// scale (e.g. the MAD of the projections of the training objects) makes
	// classifier outputs comparable across embeddings.
	Scale float64
}

// Validate checks structural invariants against a candidate-set size.
func (d Def) Validate(numCandidates int) error {
	if d.A < 0 || d.A >= numCandidates {
		return fmt.Errorf("embed: index A=%d out of range [0,%d)", d.A, numCandidates)
	}
	if d.Scale <= 0 || math.IsNaN(d.Scale) || math.IsInf(d.Scale, 0) {
		return fmt.Errorf("embed: scale %v must be positive and finite", d.Scale)
	}
	switch d.Kind {
	case KindReference:
		return nil
	case KindPivot:
		if d.B < 0 || d.B >= numCandidates {
			return fmt.Errorf("embed: index B=%d out of range [0,%d)", d.B, numCandidates)
		}
		if d.A == d.B {
			return fmt.Errorf("embed: pivot pair uses the same object %d", d.A)
		}
		if d.PivotDist <= 0 || math.IsNaN(d.PivotDist) || math.IsInf(d.PivotDist, 0) {
			return fmt.Errorf("embed: pivot distance %v must be positive and finite", d.PivotDist)
		}
		return nil
	default:
		return fmt.Errorf("embed: unknown kind %d", d.Kind)
	}
}

// Touches returns the candidate indexes whose exact distances to a query are
// needed to evaluate this embedding: one object for a reference embedding,
// two for a pivot embedding. Computing the embedding of a query costs one
// exact distance per returned index (Sec. 7: "computing the d-dimensional
// embedding of a query object requires O(d) evaluations of D_X").
func (d Def) Touches() []int {
	if d.Kind == KindPivot {
		return []int{d.A, d.B}
	}
	return []int{d.A}
}

// FromDistances evaluates the embedding given the query's distances to the
// candidate objects it touches: dA = D_X(x, c[A]) and, for pivots,
// dB = D_X(x, c[B]).
func (d Def) FromDistances(dA, dB float64) float64 {
	switch d.Kind {
	case KindReference:
		return dA / d.Scale
	case KindPivot:
		// Eq. 2: (D(x,x1)^2 + D(x1,x2)^2 - D(x,x2)^2) / (2 D(x1,x2)).
		v := (dA*dA + d.PivotDist*d.PivotDist - dB*dB) / (2 * d.PivotDist)
		return v / d.Scale
	default:
		panic(fmt.Sprintf("embed: unknown kind %d", d.Kind))
	}
}

// Set binds Defs to concrete candidate objects and a distance oracle so
// embeddings can be evaluated for arbitrary (previously unseen) objects.
type Set[T any] struct {
	Candidates []T
	Dist       space.Distance[T]
}

// Embed evaluates one Def on object x, calling the oracle once or twice.
func (s *Set[T]) Embed(d Def, x T) float64 {
	dA := s.Dist(x, s.Candidates[d.A])
	var dB float64
	if d.Kind == KindPivot {
		dB = s.Dist(x, s.Candidates[d.B])
	}
	return d.FromDistances(dA, dB)
}

// EmbedAll evaluates defs on x, caching candidate distances so each
// candidate object is compared to x at most once. This is the embedding
// step of filter-and-refine retrieval; the number of oracle calls equals
// Cost(defs).
func (s *Set[T]) EmbedAll(defs []Def, x T) []float64 {
	type dist struct {
		v    float64
		seen bool
	}
	// The cache sits on the stack for up to 128 candidates (the served
	// models have 60 or 100), so an embed allocates only its result.
	// A larger set, such as core.DefaultOptions' 150, allocates it too.
	var stack [128]dist
	cache := stack[:min(len(s.Candidates), len(stack))]
	if len(s.Candidates) > len(stack) {
		cache = make([]dist, len(s.Candidates))
	}
	get := func(ci int) float64 {
		if c := &cache[ci]; c.seen {
			return c.v
		}
		v := s.Dist(x, s.Candidates[ci])
		cache[ci] = dist{v, true}
		return v
	}
	out := make([]float64, len(defs))
	for i, d := range defs {
		dA := get(d.A)
		var dB float64
		if d.Kind == KindPivot {
			dB = get(d.B)
		}
		out[i] = d.FromDistances(dA, dB)
	}
	return out
}

// Cost returns the number of exact distance computations needed to evaluate
// all defs on one query: the number of distinct candidate objects touched.
func Cost(defs []Def) int {
	seen := make(map[int]struct{}, 2*len(defs))
	for _, d := range defs {
		for _, ci := range d.Touches() {
			seen[ci] = struct{}{}
		}
	}
	return len(seen)
}

// Project evaluates a Def for training object t using precomputed
// candidate-to-training distance rows: candToTrain.At(c, t) = D_X(c[c], x_t).
// No oracle calls are made.
func Project(d Def, candToTrain *space.Matrix, t int) float64 {
	dA := candToTrain.At(d.A, t)
	var dB float64
	if d.Kind == KindPivot {
		dB = candToTrain.At(d.B, t)
	}
	return d.FromDistances(dA, dB)
}

// ProjectAll evaluates a Def for every training object, returning one value
// per column of candToTrain.
func ProjectAll(d Def, candToTrain *space.Matrix) []float64 {
	out := make([]float64, candToTrain.Cols)
	rowA := candToTrain.Row(d.A)
	if d.Kind == KindReference {
		for t, v := range rowA {
			out[t] = v / d.Scale
		}
		return out
	}
	rowB := candToTrain.Row(d.B)
	for t := range out {
		v := (rowA[t]*rowA[t] + d.PivotDist*d.PivotDist - rowB[t]*rowB[t]) / (2 * d.PivotDist)
		out[t] = v / d.Scale
	}
	return out
}

// Classify is F̃ of Eq. 3 for a 1D embedding, given the embedding values of
// the three triple members: positive means "q is closer to a".
func Classify(fq, fa, fb float64) float64 {
	return math.Abs(fq-fb) - math.Abs(fq-fa)
}

// ClassifyVec is Eq. 3 for a multi-dimensional embedding under an arbitrary
// vector distance d: d(F(q),F(b)) − d(F(q),F(a)).
func ClassifyVec(d func(x, y []float64) float64, fq, fa, fb []float64) float64 {
	return d(fq, fb) - d(fq, fa)
}

// TripleType encodes the ground-truth relation of a triple (q, a, b):
// +1 when q is closer to a, -1 when q is closer to b, 0 on a tie.
func TripleType(dqa, dqb float64) int {
	switch {
	case dqa < dqb:
		return 1
	case dqa > dqb:
		return -1
	default:
		return 0
	}
}

// FailureRate returns the fraction of the given triples on which the
// classifier output disagrees in sign with the label (ties and zero outputs
// count as half an error, the random-guess convention). outputs and labels
// must have the same length. It reproduces the embedding-quality numbers of
// the Fig. 1 toy example.
func FailureRate(outputs []float64, labels []int) float64 {
	if len(outputs) != len(labels) {
		panic(fmt.Sprintf("embed: %d outputs vs %d labels", len(outputs), len(labels)))
	}
	if len(outputs) == 0 {
		return 0
	}
	var bad float64
	for i, out := range outputs {
		y := labels[i]
		switch {
		case out == 0 || y == 0:
			bad += 0.5
		case (out > 0) != (y > 0):
			bad++
		}
	}
	return bad / float64(len(outputs))
}
