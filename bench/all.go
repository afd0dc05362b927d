package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultFile is what -all writes and -compare reads: for each workload
// its measured runs and its traced run.
type resultFile struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Runs   []*report `json:"runs"`
	Traced *report   `json:"traced"`
}

// runAll runs every workload — `runs` measured runs, then one traced
// run — each in a fresh process, so setup_s and peak_rss_mb are that
// run's own. It reports whether every run was correct.
func runAll(seed int64, seconds float64, runs int, outDir string) (bool, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	result := resultFile{Env: readEnvironment(), Seed: seed, Seconds: seconds, Workloads: make(map[string]*workloadResult)}
	ok := true
	child := func(workload string, traced int) (*report, error) {
		reportPath := filepath.Join(outDir, "report.tmp.json")
		defer os.Remove(reportPath)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced),
			"-out", outDir, "-report", reportPath)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, traced, err)
		}
		data, err := os.ReadFile(reportPath)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", reportPath, err)
		}
		ok = ok && rep.Correct
		return rep, nil
	}
	for _, w := range workloadNames {
		wr := &workloadResult{}
		result.Workloads[w] = wr
		for i := 0; i < runs; i++ {
			rep, err := child(w, 0)
			if err != nil {
				return false, err
			}
			wr.Runs = append(wr.Runs, rep)
		}
		if wr.Traced, err = child(w, 1); err != nil {
			return false, err
		}
	}
	return ok, writeJSON(filepath.Join(outDir, "result.json"), result)
}
