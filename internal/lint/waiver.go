package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// waiverPrefix introduces an audited suppression directive:
//
//	//mrvdlint:ignore <analyzer> <reason>
//
// Placed at the end of the offending line or on its own line directly
// above, it suppresses that analyzer's findings there. The reason is
// mandatory and the analyzer name must exist; a directive that names
// no analyzer, gives no reason, or suppresses nothing is itself a
// finding, so the waiver inventory stays auditable.
const waiverPrefix = "//mrvdlint:"

type waiver struct {
	file     string // module-relative
	line     int    // the directive's own line
	analyzer string
	used     bool
}

// collectWaivers extracts every well-formed waiver in the package and
// reports malformed directives as findings under WaiverCheck.
func collectWaivers(fset *token.FileSet, root string, files []*ast.File) ([]*waiver, []Finding) {
	var waivers []*waiver
	var audit []Finding
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, waiverPrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				file := pos.Filename
				if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
				bad := func(msg, hint string) {
					audit = append(audit, Finding{
						File: file, Line: pos.Line, Col: pos.Column,
						Analyzer: WaiverCheck, Message: msg, Hint: hint,
					})
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != "ignore" {
					bad("unknown mrvdlint directive", "the only directive is //mrvdlint:ignore <analyzer> <reason>")
					continue
				}
				if len(fields) < 2 {
					bad("waiver names no analyzer", "write //mrvdlint:ignore <analyzer> <reason>")
					continue
				}
				name := fields[1]
				known := false
				var names []string
				for _, a := range Analyzers() {
					known = known || a.Name == name
					names = append(names, a.Name)
				}
				if !known {
					bad("waiver names unknown analyzer "+name, "known analyzers: "+strings.Join(names, ", "))
					continue
				}
				if len(fields) < 3 {
					bad("bare waiver: a reason is required", "say why the "+name+" finding is a deliberate exception")
					continue
				}
				waivers = append(waivers, &waiver{file: file, line: pos.Line, analyzer: name})
			}
		}
	}
	return waivers, audit
}

// applyWaivers drops findings covered by a waiver on the same line or
// the line above, then reports waivers that suppressed nothing. The
// stale audit only fires for analyzers that actually ran over the
// package, so an analyzer whose Applies excludes the package doesn't
// have its waivers there flagged as stale.
func applyWaivers(findings []Finding, waivers []*waiver, ran map[string]bool) []Finding {
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, w := range waivers {
			if w.analyzer == f.Analyzer && w.file == f.File && (w.line == f.Line || w.line == f.Line-1) {
				w.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, w := range waivers {
		if !w.used && ran[w.analyzer] {
			kept = append(kept, Finding{
				File: w.file, Line: w.line, Col: 1,
				Analyzer: WaiverCheck,
				Message:  "stale waiver: no " + w.analyzer + " finding here",
				Hint:     "delete the directive (or move it to the offending line)",
			})
		}
	}
	return kept
}
