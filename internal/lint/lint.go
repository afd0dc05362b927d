package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer hit: where, what, and how to fix it.
type Finding struct {
	File     string `json:"file"` // module-relative path
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Hint     string `json:"hint"`
}

// String renders the finding in the canonical one-line text form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s (fix: %s)", f.File, f.Line, f.Col, f.Analyzer, f.Message, f.Hint)
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string
	Files   []*ast.File
	Info    *types.Info

	analyzer string
	report   func(Finding)
	relTo    string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if p.relTo != "" {
		if rel, err := filepath.Rel(p.relTo, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	p.report(Finding{
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	Name string
	// Doc is the one-line description -list prints.
	Doc string
	// Applies scopes the analyzer to the packages whose invariant it
	// guards; pkgPath is the import path within the module.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Analyzers returns the full catalogue in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, GlobalRand, HotLabel}
}

// WaiverCheck is the name the engine reports waiver-audit findings
// under (bare or stale //mrvdlint:ignore directives). It is always on.
const WaiverCheck = "waiver"

// Run loads the packages matched by patterns under the module rooted
// at root, runs the given analyzers, audits waiver directives, and
// returns the surviving findings sorted by position. A non-nil error
// means the module could not be loaded or type-checked (the CLI's
// exit-2 case), not that findings exist.
func Run(root string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, dir := range dirs {
		fs, err := checkDir(loader, dir, "", analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// CheckDir loads one directory as though its import path were asPath
// and runs the analyzers over it. Golden-file tests use it to check
// fixture packages under a determinism-critical path.
func CheckDir(root, dir, asPath string, analyzers []*Analyzer) ([]Finding, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	findings, err := checkDir(loader, dir, asPath, analyzers)
	if err != nil {
		return nil, err
	}
	sortFindings(findings)
	return findings, nil
}

func checkDir(loader *Loader, dir, asPath string, analyzers []*Analyzer) ([]Finding, error) {
	pkg, info, err := loader.LoadDir(dir, asPath)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	collect := func(f Finding) { findings = append(findings, f) }
	// ran guards the stale-waiver audit: a waiver is stale only when
	// its analyzer actually ran over this package (given and in scope)
	// and still had nothing to suppress.
	ran := make(map[string]bool)
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Fset:     loader.Fset,
			PkgPath:  pkg.Path,
			Files:    pkg.Files,
			Info:     info,
			analyzer: a.Name,
			report:   collect,
			relTo:    loader.Root,
		}
		a.Run(pass)
	}
	waivers, audit := collectWaivers(loader.Fset, loader.Root, pkg.Files)
	findings = applyWaivers(findings, waivers, ran)
	findings = append(findings, audit...)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathWithin reports whether pkgPath is pkg or a subpackage of pkg,
// where pkg is module-relative ("internal/sim").
func pathWithin(pkgPath, pkg string) bool {
	i := strings.Index(pkgPath, pkg)
	if i < 0 {
		return false
	}
	// Must start at a path-segment boundary and end at one.
	if i > 0 && pkgPath[i-1] != '/' {
		return false
	}
	rest := pkgPath[i+len(pkg):]
	return rest == "" || rest[0] == '/'
}

// deterministicPkgs are the packages whose outputs must be
// seed-for-seed reproducible: everything the dispatch loop, the
// sharded runtime, and the experiment reports are made of.
var deterministicPkgs = []string{
	"internal/sim",
	"internal/dispatch",
	"internal/shard",
	"internal/pool",
	"internal/core",
	"internal/experiments",
	"internal/stats",
}

func isDeterminismCritical(pkgPath string) bool {
	for _, p := range deterministicPkgs {
		if pathWithin(pkgPath, p) {
			return true
		}
	}
	return false
}

// instrumentedPkgs extend the determinism-critical set with the other
// packages that hold obs instruments; the hotlabel rule applies to
// all of them.
var instrumentedPkgs = []string{
	"internal/roadnet",
	"internal/server",
	"internal/load",
	"internal/obs",
}

func isInstrumented(pkgPath string) bool {
	if isDeterminismCritical(pkgPath) {
		return true
	}
	for _, p := range instrumentedPkgs {
		if pathWithin(pkgPath, p) {
			return true
		}
	}
	return false
}

// inspectStack walks the file like ast.Inspect while maintaining the
// ancestor stack (outermost first, excluding n itself).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
