package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"qse/internal/boost"
	"qse/internal/embed"
	"qse/internal/par"
	"qse/internal/space"
	"qse/internal/stats"
)

// RoundStats records what happened in one boosting round.
type RoundStats struct {
	Round         int
	Z             float64
	Alpha         float64
	Dims          int     // embedding dimensionality after this round
	TrainingError float64 // strong-classifier error on the triples
}

// Report summarizes a training run.
type Report struct {
	Variant               string
	PreprocessedDistances int64 // exact distances spent on matrices (Sec. 7)
	Triples               int
	Rounds                []RoundStats
	Duration              time.Duration
	StoppedEarly          bool
}

// FinalTrainingError returns the training error after the last round, or
// 0.5 if no rounds were committed.
func (r *Report) FinalTrainingError() float64 {
	if len(r.Rounds) == 0 {
		return 0.5
	}
	return r.Rounds[len(r.Rounds)-1].TrainingError
}

// Train runs the full algorithm of Sec. 5 on a database sample: it draws
// the candidate set C and training pool X_tr from db, precomputes the
// distance matrices of Sec. 7, samples training triples per opts.Sampling,
// boosts query-sensitive (or plain, per opts.Mode) weak classifiers, and
// assembles the output embedding and distance.
//
// The returned model references objects from db (the candidate objects);
// db must remain valid for the model's lifetime.
func Train[T any](db []T, dist space.Distance[T], opts Options) (*Model[T], *Report, error) {
	if err := opts.Validate(len(db)); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	rng := stats.NewRand(opts.Seed)

	// Draw C and X_tr. Disjoint when the database is large enough (queries
	// must never be training objects, but candidates and training objects
	// are both database members, as in Sec. 9); overlapping otherwise.
	var cIdx, tIdx []int
	if opts.NumCandidates+opts.NumTraining <= len(db) {
		perm := rng.Perm(len(db))
		cIdx, tIdx = space.Split(perm, opts.NumCandidates, opts.NumTraining)
	} else {
		cIdx = stats.SampleWithoutReplacement(rng, len(db), opts.NumCandidates)
		tIdx = stats.SampleWithoutReplacement(rng, len(db), opts.NumTraining)
	}
	candidates := make([]T, len(cIdx))
	for i, idx := range cIdx {
		candidates[i] = db[idx]
	}
	training := make([]T, len(tIdx))
	for i, idx := range tIdx {
		training[i] = db[idx]
	}

	// Preprocessing: the distance matrices of Sec. 7. This is the one-time
	// cost the paper discusses ("computing all those distances can
	// sometimes be the most computationally expensive part").
	counter := space.NewCounter(dist)
	var cc *space.Matrix
	if opts.PivotFraction > 0 {
		cc = space.ComputeSymmetricMatrixParallel(counter.Distance, candidates, opts.workerCount())
	}
	ct := space.ComputeMatrixParallel(counter.Distance, candidates, training, opts.workerCount())
	tt := space.ComputeSymmetricMatrixParallel(counter.Distance, training, opts.workerCount())
	ranks := space.RankRowsWorkers(tt, opts.workerCount())

	triples, err := sampleTriples(rng, tt, ranks, opts.Sampling, opts.NumTriples, opts.K1)
	if err != nil {
		return nil, nil, err
	}

	// All triples are oriented so q is closer to a: label +1.
	labels := make([]int, len(triples))
	for i := range labels {
		labels[i] = 1
	}
	booster, err := boost.New(labels)
	if err != nil {
		return nil, nil, err
	}
	booster.Workers = opts.workerCount()

	report := &Report{
		Variant:               opts.VariantName(),
		PreprocessedDistances: counter.Count(),
		Triples:               len(triples),
	}

	tr := &trainer[T]{
		opts:    opts,
		rng:     rng,
		cc:      cc,
		ct:      ct,
		triples: triples,
		booster: booster,
		qCount:  make([]int, ct.Cols),
	}
	for _, tri := range triples {
		tr.qCount[tri.Q]++
	}
	for o, c := range tr.qCount {
		if c > 0 {
			tr.queries = append(tr.queries, o)
		}
	}

	var rules []Rule
	seen := make(map[coordKey]struct{})
	for round := 1; round <= opts.Rounds; round++ {
		rule, outputs, z, ok := tr.bestWeakClassifier()
		if !ok || z >= 1-1e-9 {
			// No classifier helps any more: the paper's Z_j >= 1 condition.
			report.StoppedEarly = true
			break
		}
		booster.Step(outputs, rule.Alpha)
		rules = append(rules, rule)
		seen[keyOf(rule.Def)] = struct{}{}
		report.Rounds = append(report.Rounds, RoundStats{
			Round:         round,
			Z:             z,
			Alpha:         rule.Alpha,
			Dims:          len(seen),
			TrainingError: booster.TrainingError(),
		})
	}
	if len(rules) == 0 {
		return nil, nil, fmt.Errorf("core: no useful weak classifier found in round 1; the space may be degenerate")
	}
	report.Duration = time.Since(start)
	m := newModel(opts.Mode, rules, candidates, dist)
	m.candIdx = cIdx
	return m, report, nil
}

// trainer holds per-run state for the weak-classifier search.
type trainer[T any] struct {
	opts    Options
	rng     *rand.Rand
	cc      *space.Matrix // candidate x candidate distances (pivots)
	ct      *space.Matrix // candidate x training distances
	triples []Triple
	booster *boost.Booster
	// qCount[o] is how many triples have training object o as their
	// query; queries lists the objects with a nonzero count.
	qCount  []int
	queries []int
}

// randomDef draws a random 1D embedding definition over the candidate set
// and fixes its deterministic robust scale from the training projections.
// It returns ok=false for degenerate draws (zero pivot distance, constant
// projections).
func (tr *trainer[T]) randomDef() (embed.Def, []float64, bool) {
	nc := tr.cc0()
	var def embed.Def
	if tr.rng.Float64() < tr.opts.PivotFraction && nc >= 2 {
		a := tr.rng.Intn(nc)
		b := tr.rng.Intn(nc)
		if a == b {
			return embed.Def{}, nil, false
		}
		pd := tr.cc.At(a, b)
		if pd <= 0 || math.IsInf(pd, 0) || math.IsNaN(pd) {
			return embed.Def{}, nil, false
		}
		def = embed.Def{Kind: embed.KindPivot, A: a, B: b, PivotDist: pd, Scale: 1}
	} else {
		def = embed.Def{Kind: embed.KindReference, A: tr.rng.Intn(tr.ct.Rows), Scale: 1}
	}
	proj := embed.ProjectAll(def, tr.ct)
	if tr.opts.DisableScaleNorm {
		return def, proj, true
	}
	scale := robustScale(proj)
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return embed.Def{}, nil, false
	}
	def.Scale = scale
	for i := range proj {
		proj[i] /= scale
	}
	return def, proj, true
}

func (tr *trainer[T]) cc0() int {
	if tr.cc == nil {
		return 0
	}
	return tr.cc.Rows
}

// robustScale is the median absolute deviation from the median, falling
// back to the absolute median for degenerate samples.
func robustScale(values []float64) float64 {
	med := stats.Median(values)
	dev := make([]float64, len(values))
	for i, v := range values {
		dev[i] = math.Abs(v - med)
	}
	mad := stats.Median(dev)
	if mad > 0 {
		return mad
	}
	return math.Abs(med)
}

// weakCand is one pre-drawn weak-classifier candidate. All randomness (the
// 1D embedding and the interval quantile pairs) is consumed on the training
// goroutine in the same order as a serial learner, so the rng stream — and
// therefore the trained model — does not depend on the worker count.
type weakCand struct {
	def   embed.Def
	proj  []float64
	pairs [][2]int // quantile index pairs for the interval search (QS mode)
}

// weakEval is the outcome of evaluating one candidate on all triples.
type weakEval struct {
	ok     bool
	z      float64
	alpha  float64
	lo, hi float64
}

// bestWeakClassifier implements steps 1–3 of Fig. 2 as specialized in
// Sec. 5.3: examine EmbeddingsPerRound random 1D embeddings; for each, find
// the splitter interval with the lowest weighted training error; compute
// the optimal α for each survivor; return the (rule, outputs) minimizing Z.
//
// The per-candidate evaluation over all t triples (the training hot loop,
// O(EmbeddingsPerRound · t) per round) is fanned out over opts.Workers
// goroutines. Candidates are drawn serially before the fan-out and the
// winner is reduced in candidate order afterwards, so the result is
// bit-identical to a serial scan regardless of the worker count.
func (tr *trainer[T]) bestWeakClassifier() (Rule, []float64, float64, bool) {
	t := len(tr.triples)
	weights := tr.booster.Weights()

	// Phase 1 (serial): draw the candidate pool, consuming the rng exactly
	// as the serial implementation would.
	cands := make([]weakCand, 0, tr.opts.EmbeddingsPerRound)
	for c := 0; c < tr.opts.EmbeddingsPerRound; c++ {
		def, proj, ok := tr.randomDef()
		if !ok {
			continue
		}
		wc := weakCand{def: def, proj: proj}
		if tr.opts.Mode == QuerySensitive {
			wc.pairs = make([][2]int, tr.opts.IntervalsPerEmbedding)
			for k := range wc.pairs {
				wc.pairs[k] = [2]int{tr.rng.Intn(t), tr.rng.Intn(t)}
			}
		}
		cands = append(cands, wc)
	}

	// Phase 2 (parallel): score every candidate. Each worker reuses one
	// set of scratch buffers across its contiguous chunk of candidates.
	evals := make([]weakEval, len(cands))
	par.ForWorkers(tr.opts.workerCount(), len(cands), 2, func(lo, hi int) {
		sc := scratch{
			qv:     make([]float64, t), // F(q) per triple
			ft:     make([]float64, t), // F̃ outputs per triple
			gated:  make([]float64, t), // splitter-gated outputs
			byRank: make([]int, len(tr.queries)),
			cum:    make([]int, len(tr.queries)),
		}
		for c := lo; c < hi; c++ {
			evals[c] = tr.evaluate(cands[c], sc, weights)
		}
	})

	// Phase 3 (serial): reduce in candidate order — the same
	// first-strictly-smaller-Z rule the serial loop applies.
	best := -1
	bestZ := math.Inf(1)
	for c, ev := range evals {
		if ev.ok && ev.z < bestZ {
			bestZ = ev.z
			best = c
		}
	}
	if best < 0 {
		return Rule{}, nil, 1, false
	}
	// Recompute the winner's gated outputs: one O(t) pass, far cheaper than
	// retaining outputs for every candidate during the scored scan.
	wc, ev := cands[best], evals[best]
	outputs := make([]float64, t)
	for i, tri := range tr.triples {
		q := wc.proj[tri.Q]
		if q >= ev.lo && q <= ev.hi {
			outputs[i] = embed.Classify(q, wc.proj[tri.A], wc.proj[tri.B])
		}
	}
	return Rule{Def: wc.def, Lo: ev.lo, Hi: ev.hi, Alpha: ev.alpha}, outputs, ev.z, true
}

// scratch is one worker's buffers for evaluate: qv, ft and gated hold a
// value per triple, byRank and cum one per query object.
type scratch struct {
	qv, ft, gated []float64
	byRank, cum   []int
}

// evaluate scores one candidate on all triples using caller-owned scratch
// buffers. It only reads shared trainer state, so concurrent calls with
// distinct buffers are safe.
func (tr *trainer[T]) evaluate(wc weakCand, sc scratch, weights []float64) weakEval {
	qv, ft, gated := sc.qv, sc.ft, sc.gated
	for i, tri := range tr.triples {
		qv[i] = wc.proj[tri.Q]
		ft[i] = embed.Classify(qv[i], wc.proj[tri.A], wc.proj[tri.B])
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if tr.opts.Mode == QuerySensitive {
		rankQueries(sc.byRank, sc.cum, tr.queries, tr.qCount, wc.proj)
		lo, hi = bestInterval(qv, ft, weights, wc.pairs, func(k int) float64 {
			return wc.proj[sc.byRank[sort.SearchInts(sc.cum, k+1)]]
		})
	}
	for i := range gated {
		if qv[i] >= lo && qv[i] <= hi {
			gated[i] = ft[i]
		} else {
			gated[i] = 0
		}
	}
	// Labels are all +1, so margins equal the outputs.
	alpha, z := boost.OptimalAlpha(weights, gated)
	if alpha <= 0 {
		return weakEval{}
	}
	return weakEval{ok: true, z: z, alpha: alpha, lo: lo, hi: hi}
}

// rankQueries writes the query objects into byRank in ascending order
// of their projections, ordered as sort.Float64s orders values, and
// cum[i] = the number of triples whose query is one of byRank[:i+1].
// The k-th smallest of the t triples' query projections (0-based) is
// then proj[byRank[i]] for the first i with cum[i] > k: the value a sort
// of all t reads at k, from a sort of at most NumTraining.
func rankQueries(byRank, cum, queries, qCount []int, proj []float64) {
	copy(byRank, queries)
	slices.SortFunc(byRank, func(a, b int) int { return cmp.Compare(proj[a], proj[b]) })
	n := 0
	for i, o := range byRank {
		n += qCount[o]
		cum[i] = n
	}
}

// bestInterval picks, for one 1D embedding, the splitter interval V with
// the lowest weighted training error among the pre-drawn random intervals
// plus the full line. Random intervals span two random quantiles of the
// queries' embedding values, per Sec. 5.3 ("set V to be a random interval
// of R containing some of those values"); pairs holds the quantile indexes,
// drawn by the trainer before the parallel fan-out, and sorted(k) is the
// k-th smallest of qv (0-based).
func bestInterval(qv, ft, weights []float64, pairs [][2]int, sorted func(k int) float64) (lo, hi float64) {
	bestLo, bestHi := math.Inf(-1), math.Inf(1)
	bestErr := intervalError(qv, ft, weights, bestLo, bestHi)

	for _, pr := range pairs {
		l, h := sorted(pr[0]), sorted(pr[1])
		if l > h {
			l, h = h, l
		}
		if e := intervalError(qv, ft, weights, l, h); e < bestErr {
			bestErr, bestLo, bestHi = e, l, h
		}
	}
	return bestLo, bestHi
}

// intervalError is the weighted training error of the gated classifier:
// full weight for a sign mistake inside the interval, half weight for the
// neutral output outside it (random-guess convention, matching
// boost.WeightedError). Labels are +1 for every triple.
func intervalError(qv, ft, weights []float64, lo, hi float64) float64 {
	var bad float64
	for i, q := range qv {
		switch {
		case q < lo || q > hi || ft[i] == 0:
			bad += 0.5 * weights[i]
		case ft[i] < 0:
			bad += weights[i]
		}
	}
	return bad
}
