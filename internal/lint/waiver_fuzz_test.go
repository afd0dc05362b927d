package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzWaivers feeds arbitrary Go source, parsed with comments, through
// the waiver parser and the suppression pass. Neither may panic; every
// finding either returns must point into the fuzzed file; and a
// well-formed waiver must suppress a finding of its analyzer on its own
// line.
func FuzzWaivers(f *testing.F) {
	for _, src := range []string{
		"package p\n",
		"package p\n\nvar x = 1 //mrvdlint:ignore wallclock the report is wall-clock by design\n",
		"package p\n\n//mrvdlint:ignore maporder sorted right after\nvar m = map[int]int{}\n",
		"package p\n\n//mrvdlint:ignore\n//mrvdlint:ignore nosuch reason\n//mrvdlint:ignore globalrand\n//mrvdlint:\n",
		"package p\n\n//mrvdlint:skip wallclock reason\n/*mrvdlint:ignore wallclock block comments are not waivers*/\n",
		"package p\n\nfunc f() {\n\t//mrvdlint:ignore hotlabel\t\ttabs  and  spaces\n}\n",
		"//mrvdlint:ignore wallclock before the package clause\npackage p\n",
		"package p\n\nfunc f( //mrvdlint:ignore wallclock in a broken file\n",
	} {
		f.Add(src)
	}
	const name = "x/fuzz.go"
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, _ := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if file == nil {
			return
		}
		lines := strings.Count(src, "\n") + 1
		valid := func(stage string, fd Finding) {
			if fd.File != name || fd.Line < 1 || fd.Line > lines || fd.Col < 1 || fd.Analyzer == "" {
				t.Fatalf("%s finding at an invalid position in a %d-line file: %+v", stage, lines, fd)
			}
		}

		waivers, audit := collectWaivers(fset, ".", []*ast.File{file})
		for _, fd := range audit {
			valid("audit", fd)
			if fd.Analyzer != WaiverCheck {
				t.Fatalf("audit finding under %q, want %q", fd.Analyzer, WaiverCheck)
			}
		}

		// One finding on every waiver's line, under the analyzer it
		// names, and one per analyzer on line 1.
		ran := map[string]bool{}
		var findings []Finding
		for _, a := range Analyzers() {
			ran[a.Name] = true
			findings = append(findings, Finding{File: name, Line: 1, Col: 1, Analyzer: a.Name})
		}
		for _, w := range waivers {
			findings = append(findings, Finding{File: w.file, Line: w.line, Col: 1, Analyzer: w.analyzer})
		}
		for _, fd := range applyWaivers(findings, waivers, ran) {
			valid("applied", fd)
			for _, w := range waivers {
				if fd.Analyzer == w.analyzer && fd.Line == w.line {
					t.Fatalf("waiver %+v did not suppress %+v", *w, fd)
				}
			}
		}
	})
}
