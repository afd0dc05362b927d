// Command mrvd-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mrvd-bench -exp fig7 [-scale 0.25] [-seeds 3]
//	mrvd-bench -exp all
//	mrvd-bench -list
//
// Each experiment prints a plain-text table with the same rows/series
// the paper reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"mrvd/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (e.g. table3, fig7) or 'all'")
		scale = flag.Float64("scale", 0.25, "fraction of the paper's order volume and fleet sizes")
		seeds = flag.Int("seeds", 3, "problem instances averaged per data point (paper uses 10)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-18s %s\n", id, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "mrvd-bench: -exp required (or -list); e.g. -exp fig7")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := experiments.Config{Scale: *scale, Seeds: *seeds}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "mrvd-bench: unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s: %s (scale=%.2f, seeds=%d) ==\n", e.ID, e.Title, *scale, *seeds)
		start := time.Now()
		if err := e.Run(ctx, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mrvd-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %s --\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
