// Command bench is the repository's benchmark: four workloads, each
// run in a process of its own, measured end to end (-trace 0) and layer
// by layer from outside (-trace 1). See README.md for what every metric
// means and BENCHMARK.json, one directory up, for the contract.
//
// Usage, from the repository root:
//
//	go run -C bench . -workload day_gc -seed 1 [-seconds 30] [-trace 1]
//	go run -C bench . -all [-runs 3] [-seed 1] [-seconds 30]
//	go run -C bench . -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workloadNames in reporting order.
var workloadNames = []string{"day_gc", "peak_road", "peak_shard2", "live_http"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: day_gc, peak_road, peak_shard2 or live_http")
		seed     = flag.Int64("seed", 1, "workload seed: trace sampling, driver starts, arrival schedule, op mix")
		seconds  = flag.Float64("seconds", 30, "length of the measured phase; small values are a smoke mode that still runs every check")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, each in its own process, and write result.json")
		runs     = flag.Int("runs", 1, "with -all: untraced runs per workload (their spread is what -compare judges)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		outDir   = flag.String("out", "out", "directory for result.json and trace_<workload>.jsonl")
		specPath = flag.String("spec", "../BENCHMARK.json", "with -compare: the benchmark contract holding directions and bounds")
		reportTo = flag.String("report", "", "also write this run's full report as JSON to this file")
	)
	flag.Parse()
	// Go 1.24 sizes GOMAXPROCS from the affinity mask and ignores a
	// container's CPU quota; pin it to what nproc reports.
	runtime.GOMAXPROCS(usableCPUs())

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *all:
		ok, err := runAll(*seed, *seconds, *runs, *outDir)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		var rep *report
		var err error
		switch {
		case *workload == "live_http":
			rep, err = runLiveWorkload(*seed, *seconds, *trace == 1, *outDir)
		case replayBuilders[*workload] != nil:
			rep, err = runReplayWorkload(*workload, *seed, *seconds, *trace == 1, *outDir)
		default:
			fatalf("unknown workload %q (have %v)", *workload, workloadNames)
		}
		if err != nil {
			fatalf("%s: %v", *workload, err)
		}
		rep.Env = readEnvironment()
		rep.finish()
		if *reportTo != "" {
			if err := writeJSON(*reportTo, rep); err != nil {
				fatalf("%v", err)
			}
		}
		rep.print(os.Stdout)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
