// Quickstart: generate a synthetic workload modeled on the CTC-SP2 log,
// schedule it with plain EASY backfilling and with the paper's best
// heuristic triple (E-Loss learning + Incremental correction +
// EASY-SJBF), and compare the average bounded slowdown.
//
// Run with:
//
//	go run ./examples/quickstart              # 4000 jobs
//	go run ./examples/quickstart -jobs 50     # smoke scale
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	jobs := flag.Int("jobs", 4000, "workload size (smaller runs finish in milliseconds)")
	flag.Parse()

	// A slice of the CTC-SP2 preset: a saturated machine with heavily
	// over-estimated requested times.
	cfg, err := workload.Scaled("CTC-SP2", *jobs)
	if err != nil {
		log.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s — %d jobs on %d processors (offered load %.2f)\n\n",
		w.Name, len(w.Jobs), w.MaxProcs, w.OfferedLoad())

	for _, triple := range []core.Triple{
		core.EASY(),            // the production baseline
		core.EASYPlusPlus(),    // Tsafrir's AVE2-based variant
		core.PaperBest(),       // the paper's contribution
		core.ClairvoyantSJBF(), // the unreachable bound
	} {
		res, err := sim.Run(w, triple.Config())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-60s AVEbsld %7.1f   mean wait %6.0fs   corrections %d\n",
			triple.Name(), metrics.AVEbsld(res), metrics.MeanWait(res), res.Corrections)
	}
	fmt.Println("\nLower AVEbsld is better. The learning triple cuts the mean waiting")
	fmt.Println("time sharply; on some logs its AVEbsld is dragged by a handful of")
	fmt.Println("extreme-slowdown jobs (the paper discusses this in Section 6.5).")
	fmt.Println("Run cmd/campaign -table 7 for the cross-validated triple selection of Table 7.")
}
