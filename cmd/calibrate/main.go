// Command calibrate prints reference-triple AVEbsld per preset at
// benchmark scale, used while calibrating the synthetic generators.
//
// Usage:
//
//	calibrate                  # all presets, 3000 jobs, 3 seed offsets
//	calibrate -jobs 500 -seeds 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit status 2 is a usage error, 1 a
// runtime failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 3000, "jobs per preset workload")
	seeds := fs.Int("seeds", 3, "seed offsets to sweep per preset")
	if err := fs.Parse(args); err != nil {
		return cli.ParseExit(err)
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "calibrate: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	// Reject the silent-typo values loudly, as cmd/campaign does.
	if *jobs <= 0 {
		return usage("-jobs must be > 0, got %d", *jobs)
	}
	if *seeds <= 0 {
		return usage("-seeds must be > 0, got %d", *seeds)
	}
	if err := sweep(*jobs, *seeds, stdout); err != nil {
		fmt.Fprintln(stderr, "calibrate:", err)
		return 1
	}
	return 0
}

// sweep runs every preset across the seed offsets and prints the
// EASY-vs-clairvoyant gain line per cell.
func sweep(jobs, seeds int, w io.Writer) error {
	for _, name := range workload.PresetNames() {
		for ds := uint64(0); ds < uint64(seeds); ds++ {
			cfg, err := workload.Scaled(name, jobs)
			if err != nil {
				return err
			}
			cfg.Seed += ds
			wl, err := workload.Generate(cfg)
			if err != nil {
				return err
			}
			score := func(t core.Triple) (float64, error) {
				res, err := sim.Run(wl, t.Config())
				if err != nil {
					return 0, err
				}
				return metrics.AVEbsld(res), nil
			}
			e, err := score(core.EASY())
			if err != nil {
				return err
			}
			c, err := score(core.ClairvoyantEASY())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s seed+%d EASY=%6.1f ClairEASY=%6.1f gain=%5.1f%%\n", name, ds, e, c, 100*(e-c)/e)
		}
	}
	return nil
}
