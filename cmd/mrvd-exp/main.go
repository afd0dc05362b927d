// Command mrvd-exp runs the repo's experiment presets. Every preset is
// a grid — (series × layer × fleet × seed) full-day simulations on one
// core.Sweep call — plus a renderer: the paper's tables, figures and
// ablations print the plain-text table the paper reports, the matrix
// presets (disruptions, pooling, fleets) a markdown summary with trial
// statistics and paired comparisons. Every grid also leaves CSV and
// machine-readable JSON reports (EXP_<grid>.{csv,json}) in -out.
// Reports are deterministic: rerunning with the same flags reproduces
// them byte-identically at any -workers value (only the per-batch
// wall-clock columns of the figures vary).
//
// Usage:
//
//	mrvd-exp -preset disruptions [-scale 0.05] [-seeds 5] [-workers 0] [-out .]
//	mrvd-exp -preset fig7 -scale 0.25 -seeds 3
//	mrvd-exp -preset fleets -algs LS,NEAR,UPPER -fleets 100,200
//	mrvd-exp -list
//	mrvd-exp -verify EXP_disruptions.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mrvd/internal/experiments"
	"mrvd/internal/experiments/matrix"
)

func main() {
	var (
		preset  = flag.String("preset", "", "preset to run (see -list)")
		scale   = flag.Float64("scale", 0.05, "fraction of the paper's order volume and fleet sizes")
		seeds   = flag.Int("seeds", 5, "problem instances per cell (paper uses 10)")
		workers = flag.Int("workers", 0, "parallel cells (0 = GOMAXPROCS, or 1 for presets that print batch times; 1 = sequential)")
		out     = flag.String("out", ".", "directory for EXP_<grid>.{csv,json}")
		algs    = flag.String("algs", "", "comma-separated algorithms replacing a matrix preset's rows")
		fleets  = flag.String("fleets", "", "comma-separated driver counts replacing a matrix preset's fleet axis")
		list    = flag.Bool("list", false, "list presets and exit")
		verify  = flag.String("verify", "", "parse an EXP_*.json report, check it is well-formed and non-empty, and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-20s %s\n", id, e.Title)
		}
		return
	}
	if *verify != "" {
		f, err := os.Open(*verify)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r, err := matrix.ReadReport(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mrvd-exp: %s OK: %d cells, %d comparisons, %d seeds\n",
			*verify, len(r.Cells), len(r.Comparisons), len(r.Seeds))
		return
	}
	if *preset == "" {
		fmt.Fprintln(os.Stderr, "mrvd-exp: -preset required (or -list / -verify); e.g. -preset disruptions")
		os.Exit(2)
	}
	e, ok := experiments.Lookup(*preset)
	if !ok {
		fatal(fmt.Errorf("unknown preset %q (have %v)", *preset, experiments.IDs()))
	}
	if *algs != "" || *fleets != "" {
		// Only the generic report can show rows and fleets it was not
		// written for.
		if e.Grids == nil || e.Render != nil {
			fatal(fmt.Errorf("-algs/-fleets apply to the matrix presets (e.g. fleets), not %s", e.ID))
		}
		algList, fleetList, grids := splitList(*algs), parseInts(*fleets), e.Grids
		e.Grids = func(p experiments.Params) []matrix.Config {
			cfgs := grids(p)
			for i := range cfgs {
				if len(algList) > 0 {
					cfgs[i].Algorithms, cfgs[i].Series = algList, nil
				}
				if len(fleetList) > 0 {
					cfgs[i].Fleets = fleetList
				}
				cfgs[i].Comparisons = nil // back to every pair of the new grid
			}
			return cfgs
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, err := e.Run(ctx, experiments.Params{Scale: *scale, Seeds: *seeds, Workers: *workers}, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if len(results) > 0 {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	write := func(name string, render func(*os.File) error) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := render(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mrvd-exp: wrote %s\n", path)
	}
	cells := 0
	for _, res := range results {
		write("EXP_"+res.Name+".csv", func(f *os.File) error { return res.CSV(f) })
		write("EXP_"+res.Name+".json", func(f *os.File) error { return res.JSON(f) })
		cells += len(res.Cells)
	}
	fmt.Fprintf(os.Stderr, "mrvd-exp: %s: %d cells × %d seeds in %s\n",
		e.ID, cells, *seeds, time.Since(start).Round(time.Millisecond))
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			fatal(fmt.Errorf("bad number %q", f))
		}
		out = append(out, n)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mrvd-exp: %v\n", err)
	os.Exit(1)
}
