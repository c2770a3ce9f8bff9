package embed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qse/internal/metrics"
	"qse/internal/space"
)

// Euclidean plane test space.
func planeDist(a, b []float64) float64 { return metrics.L2(a, b) }

func planeSet(candidates ...[]float64) *Set[[]float64] {
	return &Set[[]float64]{Candidates: candidates, Dist: planeDist}
}

func TestReferenceEmbedding(t *testing.T) {
	s := planeSet([]float64{0, 0})
	d := Def{Kind: KindReference, A: 0, Scale: 1}
	if got := s.Embed(d, []float64{3, 4}); got != 5 {
		t.Errorf("F^r = %v, want 5", got)
	}
	d.Scale = 2
	if got := s.Embed(d, []float64{3, 4}); got != 2.5 {
		t.Errorf("scaled F^r = %v, want 2.5", got)
	}
}

func TestPivotEmbeddingIsLineProjection(t *testing.T) {
	// In a Euclidean space, Eq. 2 is exactly the scalar projection of x
	// onto the line through x1, x2 (Pythagoras). Pivots at (0,0) and (10,0):
	// projection of (x, y) is x.
	s := planeSet([]float64{0, 0}, []float64{10, 0})
	d := Def{Kind: KindPivot, A: 0, B: 1, PivotDist: 10, Scale: 1}
	cases := [][]float64{{3, 4}, {7, -2}, {0, 5}, {10, 1}, {-4, 2}}
	for _, p := range cases {
		if got := s.Embed(d, p); math.Abs(got-p[0]) > 1e-9 {
			t.Errorf("pivot embed of %v = %v, want %v", p, got, p[0])
		}
	}
}

func TestPivotEmbeddingProperty(t *testing.T) {
	// Property: for random Euclidean points, the pivot embedding equals the
	// scalar projection onto the pivot line.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1 := []float64{rng.NormFloat64(), rng.NormFloat64()}
		p2 := []float64{rng.NormFloat64(), rng.NormFloat64()}
		dp := planeDist(p1, p2)
		if dp < 1e-3 {
			return true
		}
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		s := planeSet(p1, p2)
		d := Def{Kind: KindPivot, A: 0, B: 1, PivotDist: dp, Scale: 1}
		got := s.Embed(d, x)
		// Analytic projection.
		ux, uy := (p2[0]-p1[0])/dp, (p2[1]-p1[1])/dp
		want := (x[0]-p1[0])*ux + (x[1]-p1[1])*uy
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefValidate(t *testing.T) {
	valid := Def{Kind: KindReference, A: 0, Scale: 1}
	if err := valid.Validate(3); err != nil {
		t.Errorf("valid ref: %v", err)
	}
	cases := []Def{
		{Kind: KindReference, A: -1, Scale: 1},
		{Kind: KindReference, A: 3, Scale: 1},
		{Kind: KindReference, A: 0, Scale: 0},
		{Kind: KindReference, A: 0, Scale: math.NaN()},
		{Kind: KindPivot, A: 0, B: 0, PivotDist: 1, Scale: 1},
		{Kind: KindPivot, A: 0, B: 3, PivotDist: 1, Scale: 1},
		{Kind: KindPivot, A: 0, B: 1, PivotDist: 0, Scale: 1},
		{Kind: Kind(9), A: 0, Scale: 1},
	}
	for i, d := range cases {
		if err := d.Validate(3); err == nil {
			t.Errorf("case %d (%+v) should fail validation", i, d)
		}
	}
	validPivot := Def{Kind: KindPivot, A: 0, B: 1, PivotDist: 2, Scale: 1}
	if err := validPivot.Validate(3); err != nil {
		t.Errorf("valid pivot: %v", err)
	}
}

func TestTouchesAndCost(t *testing.T) {
	ref := Def{Kind: KindReference, A: 2, Scale: 1}
	piv := Def{Kind: KindPivot, A: 2, B: 5, PivotDist: 1, Scale: 1}
	if got := ref.Touches(); len(got) != 1 || got[0] != 2 {
		t.Errorf("ref touches %v", got)
	}
	if got := piv.Touches(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("pivot touches %v", got)
	}
	// Shared candidates are counted once.
	defs := []Def{ref, piv, {Kind: KindReference, A: 5, Scale: 1}}
	if got := Cost(defs); got != 2 {
		t.Errorf("Cost = %d, want 2", got)
	}
	if Cost(nil) != 0 {
		t.Error("Cost(nil) != 0")
	}
}

func TestEmbedAllCachesDistances(t *testing.T) {
	c := space.NewCounter(planeDist)
	s := &Set[[]float64]{
		Candidates: [][]float64{{0, 0}, {10, 0}, {0, 10}},
		Dist:       c.Distance,
	}
	defs := []Def{
		{Kind: KindReference, A: 0, Scale: 1},
		{Kind: KindPivot, A: 0, B: 1, PivotDist: 10, Scale: 1},
		{Kind: KindReference, A: 1, Scale: 1},
		{Kind: KindPivot, A: 1, B: 2, PivotDist: math.Sqrt(200), Scale: 1},
	}
	vec := s.EmbedAll(defs, []float64{1, 2})
	if len(vec) != 4 {
		t.Fatalf("len = %d", len(vec))
	}
	// Unique candidates touched: 0, 1, 2 -> exactly 3 oracle calls.
	if c.Count() != 3 {
		t.Errorf("EmbedAll used %d distance calls, want 3", c.Count())
	}
	if c.Count() != int64(Cost(defs)) {
		t.Errorf("Cost (%d) disagrees with actual calls (%d)", Cost(defs), c.Count())
	}
}

func TestEmbedAllMatchesEmbed(t *testing.T) {
	s := planeSet([]float64{0, 0}, []float64{3, 1}, []float64{-2, 4})
	defs := []Def{
		{Kind: KindReference, A: 1, Scale: 2},
		{Kind: KindPivot, A: 0, B: 2, PivotDist: planeDist([]float64{0, 0}, []float64{-2, 4}), Scale: 1},
	}
	x := []float64{1.5, -0.5}
	vec := s.EmbedAll(defs, x)
	for i, d := range defs {
		if single := s.Embed(d, x); math.Abs(single-vec[i]) > 1e-12 {
			t.Errorf("def %d: EmbedAll %v != Embed %v", i, vec[i], single)
		}
	}
	// On both sides of the cache's 128 stack-held candidates, with defs
	// that share candidates and reach the last one, every value keeps
	// Embed's bits and the oracle calls number Cost(defs).
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{100, 128, 129, 150, 200} {
		cands := make([][]float64, n)
		for i := range cands {
			cands[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		defs := []Def{{Kind: KindReference, A: n - 1, Scale: 1}}
		for len(defs) < 60 {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 || a == b {
				defs = append(defs, Def{Kind: KindReference, A: a, Scale: 1})
				continue
			}
			pd := planeDist(cands[a], cands[b])
			defs = append(defs, Def{Kind: KindPivot, A: a, B: b, PivotDist: pd, Scale: 0.5})
		}
		defs = append(defs, Def{Kind: KindPivot, A: 0, B: n - 1, PivotDist: planeDist(cands[0], cands[n-1]), Scale: 1})
		c := space.NewCounter(planeDist)
		s := &Set[[]float64]{Candidates: cands, Dist: c.Distance}
		x := []float64{0.3, -1.2}
		vec := s.EmbedAll(defs, x)
		if got, want := c.Count(), int64(Cost(defs)); got != want {
			t.Errorf("n=%d: EmbedAll used %d distance calls, Cost is %d", n, got, want)
		}
		for i, d := range defs {
			if single := s.Embed(d, x); math.Float64bits(single) != math.Float64bits(vec[i]) {
				t.Errorf("n=%d def %d: EmbedAll %v != Embed %v", n, i, vec[i], single)
			}
		}
	}
}

func TestProjectMatchesEmbed(t *testing.T) {
	// Project via matrix must equal Embed via oracle.
	cands := [][]float64{{0, 0}, {4, 0}, {0, 3}}
	train := [][]float64{{1, 1}, {2, 2}, {-1, 0}, {4, 4}}
	s := planeSet(cands...)
	m := space.ComputeMatrix(planeDist, cands, train)
	defs := []Def{
		{Kind: KindReference, A: 2, Scale: 1.5},
		{Kind: KindPivot, A: 0, B: 1, PivotDist: 4, Scale: 0.7},
	}
	for _, d := range defs {
		all := ProjectAll(d, m)
		for ti, x := range train {
			want := s.Embed(d, x)
			if math.Abs(all[ti]-want) > 1e-9 {
				t.Errorf("ProjectAll[%d] = %v, want %v", ti, all[ti], want)
			}
			if got := Project(d, m, ti); math.Abs(got-want) > 1e-9 {
				t.Errorf("Project[%d] = %v, want %v", ti, got, want)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	// q=0, a=1, b=5: q closer to a, so F̃ > 0.
	if got := Classify(0, 1, 5); got != 4 {
		t.Errorf("Classify = %v, want 4", got)
	}
	if got := Classify(0, 5, 1); got != -4 {
		t.Errorf("Classify = %v, want -4", got)
	}
	if got := Classify(0, 2, -2); got != 0 {
		t.Errorf("tie = %v, want 0", got)
	}
}

func TestClassifyVec(t *testing.T) {
	l1 := func(x, y []float64) float64 { return metrics.L1(x, y) }
	fq := []float64{0, 0}
	fa := []float64{1, 0}
	fb := []float64{3, 3}
	if got := ClassifyVec(l1, fq, fa, fb); got != 5 {
		t.Errorf("ClassifyVec = %v, want 5", got)
	}
}

func TestTripleType(t *testing.T) {
	if TripleType(1, 2) != 1 || TripleType(2, 1) != -1 || TripleType(1, 1) != 0 {
		t.Error("TripleType wrong")
	}
}

func TestFailureRate(t *testing.T) {
	outputs := []float64{1, -1, 2, -3}
	labels := []int{1, 1, -1, -1}
	// correct, wrong, wrong, correct -> 0.5.
	if got := FailureRate(outputs, labels); got != 0.5 {
		t.Errorf("FailureRate = %v, want 0.5", got)
	}
	// Zero output counts half.
	if got := FailureRate([]float64{0}, []int{1}); got != 0.5 {
		t.Errorf("neutral FailureRate = %v, want 0.5", got)
	}
	if got := FailureRate(nil, nil); got != 0 {
		t.Errorf("empty FailureRate = %v", got)
	}
}

func TestFailureRatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	FailureRate([]float64{1}, []int{1, -1})
}

func TestScaleDoesNotChangeClassification(t *testing.T) {
	// Scaling a 1D embedding must not change the sign of F̃ on any triple —
	// the invariant that makes robust scale normalization safe.
	rng := rand.New(rand.NewSource(5))
	cands := [][]float64{{0, 0}, {5, 5}}
	s1 := planeSet(cands...)
	for trial := 0; trial < 100; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		a := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		b := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		d1 := Def{Kind: KindReference, A: 0, Scale: 1}
		d2 := Def{Kind: KindReference, A: 0, Scale: 7.3}
		c1 := Classify(s1.Embed(d1, q), s1.Embed(d1, a), s1.Embed(d1, b))
		c2 := Classify(s1.Embed(d2, q), s1.Embed(d2, a), s1.Embed(d2, b))
		if (c1 > 0) != (c2 > 0) || (c1 < 0) != (c2 < 0) {
			t.Fatalf("scaling changed classification: %v vs %v", c1, c2)
		}
	}
}

// Reproduce the reference-object intuition: if q is very close to r, F^r
// classifies triples involving q almost perfectly (the motivation for
// query-sensitive splitters in Sec. 4).
func TestReferenceEmbeddingAccurateNearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := []float64{0.5, 0.5}
	s := planeSet(r)
	d := Def{Kind: KindReference, A: 0, Scale: 1}
	q := []float64{0.501, 0.499} // essentially at r

	var correct, total int
	for trial := 0; trial < 500; trial++ {
		a := []float64{rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64()}
		label := TripleType(planeDist(q, a), planeDist(q, b))
		if label == 0 {
			continue
		}
		out := Classify(s.Embed(d, q), s.Embed(d, a), s.Embed(d, b))
		if out != 0 && (out > 0) == (label > 0) {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("accuracy near reference = %.3f, want > 0.95", acc)
	}
}
