// Command qse-query runs nearest-neighbor queries against a trained
// index, printing the results and the exact-distance cost compared to
// brute force. It can load the index two ways:
//
//   - -model: a model gob from qse-train. The database is regenerated
//     from -db/-dataseed (which must match training) and re-embedded.
//   - -bundle: a durable layout from qse-serve (or Store.Save). Nothing
//     is regenerated or re-embedded; -db/-dataseed are ignored and the
//     dataset flag only picks the query generator and distance. The
//     bundle opens with the shard count it was saved with; answers are
//     identical for every shard count, so no flag is needed here.
//
// Usage:
//
//	qse-query -model model.gob -dataset series -db 1000 -dataseed 7 [flags]
//	qse-query -bundle qse.bundle -dataset series [flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qse"
	"qse/internal/datasets"
)

func main() {
	var (
		modelPath = flag.String("model", "model.gob", "model file from qse-train")
		bundle    = flag.String("bundle", "", "self-contained bundle from qse-serve/Store.Save (overrides -model; no dataset rebuild)")
		dataset   = flag.String("dataset", "series", "digits | series (must match training)")
		dbSize    = flag.Int("db", 1000, "database size (must match training)")
		dataseed  = flag.Int64("dataseed", 7, "dataset seed (must match training)")
		numQ      = flag.Int("n", 10, "number of queries to run")
		k         = flag.Int("k", 5, "neighbors per query")
		p         = flag.Int("p", 100, "filter candidates kept for refinement")
		autoP     = flag.Bool("autop", false, "calibrate p automatically on a held-out sample (overrides -p)")
		pct       = flag.Float64("pct", 95, "recall target for -autop, percent of queries capturing all k true NNs")
		queryseed = flag.Int64("queryseed", 99, "seed for generating query objects")
		filter    = flag.String("filter", "", `JSON metadata predicate, e.g. '{"field":"tenant","eq":"acme"}' (requires -bundle)`)
		quantBits = flag.Int("quantize-bits", -1, "8 turns on the 8-bit scalar-quantized shadow block for the filter scan, 0 turns it off, -1 keeps the bundle's setting (requires -bundle); a shadow is built only for a shard base of at least 16,384 rows and 16 embedded dimensions, and smaller bases keep the exact scan; answers are bit-identical either way")
	)
	flag.Parse()

	if *bundle != "" && *autoP {
		fatalf("-autop needs a model and database; it is not supported with -bundle")
	}
	if *filter != "" && *bundle == "" {
		fatalf("-filter needs stored metadata; it is only supported with -bundle")
	}
	if *quantBits >= 0 && *bundle == "" {
		fatalf("-quantize-bits configures a store's shadow block; it is only supported with -bundle")
	}
	switch *quantBits {
	case -1, 0, 8:
	default:
		fatalf("-quantize-bits %d: supported widths are 0 (off) or 8 bits per dimension", *quantBits)
	}

	switch *dataset {
	case "digits":
		dispatch(datasets.Digits, *bundle, *modelPath, *dbSize, *dataseed, *numQ, *queryseed, *k, *p, *autoP, *pct, *filter, *quantBits)
	case "series":
		dispatch(datasets.Series, *bundle, *modelPath, *dbSize, *dataseed, *numQ, *queryseed, *k, *p, *autoP, *pct, *filter, *quantBits)
	default:
		fatalf("unknown dataset %q", *dataset)
	}
}

// dispatch runs the query flow for one dataset generator: queries always
// come from the generator; the database comes from a bundle when one is
// given, and is regenerated + re-embedded from the model otherwise.
func dispatch[T any](gen func(int, int64) ([]T, func(a, b T) float64, error),
	bundle, modelPath string, dbSize int, dataseed int64, numQ int, queryseed int64,
	k, p int, autoP bool, pct float64, filter string, quantBits int) {
	qs, dist, err := gen(numQ, queryseed)
	if err != nil {
		fatalf("generating queries: %v", err)
	}
	if bundle != "" {
		runBundle(bundle, qs, dist, k, p, filter, quantBits)
		return
	}
	db, dist, err := gen(dbSize, dataseed)
	if err != nil {
		fatalf("rebuilding database: %v", err)
	}
	run(modelPath, db, qs, dist, k, p, autoP, pct, queryseed)
}

// runBundle serves the queries from a self-contained bundle: no database
// regeneration, no re-embedding. The exact baseline is obtained by
// searching with p = store size, which degenerates filter-and-refine to
// an exact scan.
func runBundle[T any](path string, queries []T, dist qse.Distance[T], k, p int, filter string, quantBits int) {
	start := time.Now()
	st, err := qse.OpenStore(path, dist, qse.GobCodec[T]())
	if err != nil {
		fatalf("opening bundle: %v", err)
	}
	if quantBits >= 0 {
		if err := st.SetQuantization(quantBits); err != nil {
			fatalf("setting quantization: %v", err)
		}
	}
	fmt.Printf("bundle: %d objects, %d dims, %d shard(s), opened in %v (0 exact distances)\n\n",
		st.Size(), st.Dims(), st.Stats().Shards, time.Since(start).Round(time.Millisecond))

	var pred *qse.Filter
	if filter != "" {
		if pred, err = st.CompileFilter([]byte(filter)); err != nil {
			fatalf("compiling filter: %v", err)
		}
		fmt.Printf("filter: %s (search restricted to matching objects)\n\n", filter)
	}

	var totalCost, hits, possible int
	for qi, q := range queries {
		res, stats, err := st.SearchFiltered(q, k, p, pred)
		if err != nil {
			fatalf("query %d: %v", qi, err)
		}
		exact, _, err := st.SearchFiltered(q, k, max(k, st.Size()), pred)
		if err != nil {
			fatalf("query %d exact baseline: %v", qi, err)
		}
		exactSet := map[uint64]bool{}
		for _, e := range exact {
			exactSet[e.ID] = true
		}
		found := 0
		for _, r := range res {
			if exactSet[r.ID] {
				found++
			}
		}
		hits += found
		possible += len(exact)
		totalCost += stats.Total()
		fmt.Printf("query %2d: top-%d recall %d/%d, cost %4d exact distances (vs %d brute force)\n",
			qi, k, found, len(exact), stats.Total(), st.Size())
		for _, r := range res[:min(3, len(res))] {
			fmt.Printf("          id %-5d d=%.4f\n", r.ID, r.Distance)
		}
	}
	fmt.Printf("\nmean cost %.1f distances/query, speed-up %.1fx, recall %.1f%%\n",
		float64(totalCost)/float64(len(queries)),
		float64(st.Size())*float64(len(queries))/float64(totalCost),
		100*float64(hits)/float64(possible))
	if sst := st.Stats(); sst.QuantBits > 0 && sst.BoundScannedRows > 0 {
		fmt.Printf("quantized scan (%d bits): %d rows bound-screened, %d evaluated exactly (%.1f%% pruned)\n",
			sst.QuantBits, sst.BoundScannedRows, sst.BoundExactRows,
			100*(1-float64(sst.BoundExactRows)/float64(sst.BoundScannedRows)))
	}
}

func run[T any](modelPath string, db, queries []T, dist qse.Distance[T], k, p int, autoP bool, pct float64, queryseed int64) {
	f, err := os.Open(modelPath)
	if err != nil {
		fatalf("opening model: %v", err)
	}
	defer f.Close()
	model, err := qse.LoadModel(f, db, dist)
	if err != nil {
		fatalf("loading model: %v", err)
	}
	fmt.Printf("model: %d dims, embed cost %d exact distances\n", model.Dims(), model.EmbedCost())

	if autoP {
		// Calibrate on a slice of the query sample (same distribution,
		// different objects than the queries actually timed below would be
		// ideal; for a demo tool the same sample is acceptable).
		cal, err := qse.CalibrateP(model, db, queries, dist, k, pct)
		if err != nil {
			fatalf("calibrating p: %v", err)
		}
		p = cal.P
		fmt.Printf("calibrated p = %d for %.0f%% recall at k = %d (achieved %.0f%% on the sample; cost %d distances/query)\n",
			cal.P, pct, k, 100*cal.AchievedRecall, cal.CostPerQuery)
	}

	start := time.Now()
	ix, err := qse.NewIndex(model, db, dist)
	if err != nil {
		fatalf("indexing: %v", err)
	}
	fmt.Printf("indexed %d objects in %v\n\n", ix.Size(), time.Since(start).Round(time.Millisecond))

	var totalCost, hits, possible int
	for qi, q := range queries {
		res, st, err := ix.Search(q, k, p)
		if err != nil {
			fatalf("query %d: %v", qi, err)
		}
		exact, _ := ix.BruteForce(q, k)
		exactSet := map[int]bool{}
		for _, e := range exact {
			exactSet[e.Index] = true
		}
		found := 0
		for _, r := range res {
			if exactSet[r.Index] {
				found++
			}
		}
		hits += found
		possible += len(exact)
		totalCost += st.Total()
		fmt.Printf("query %2d: top-%d recall %d/%d, cost %4d exact distances (vs %d brute force)\n",
			qi, k, found, len(exact), st.Total(), len(db))
		for _, r := range res[:min(3, len(res))] {
			fmt.Printf("          #%-5d d=%.4f\n", r.Index, r.Distance)
		}
	}
	fmt.Printf("\nmean cost %.1f distances/query, speed-up %.1fx, recall %.1f%%\n",
		float64(totalCost)/float64(len(queries)),
		float64(len(db))*float64(len(queries))/float64(totalCost),
		100*float64(hits)/float64(possible))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
