// Command mrvd-lint runs the repo's determinism & hot-path
// static-analysis suite (internal/lint), every analyzer of the
// catalogue, over module packages.
//
//	mrvd-lint [-json] [-list] [packages]
//
// packages defaults to ./... resolved against the enclosing module
// root. Exit status: 0 clean, 1 findings, 2 the module could not be
// loaded or type-checked (or the flags were invalid).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mrvd/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mrvd-lint [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-11s %s\n", lint.WaiverCheck,
			"(always on) audits //mrvdlint:ignore directives: bare, unknown-analyzer, and stale waivers are findings")
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(root, patterns, lint.Analyzers())
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Printf("mrvd-lint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, so mrvd-lint works from any subdirectory of the module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mrvd-lint: no go.mod above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
