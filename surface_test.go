package mrvd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRootExportsHaveUsers keeps the root package's surface from growing
// back. Every exported package-level name of the root's non-test files
// needs a user — a reference from non-test code anywhere in the tree
// (commands, examples, internal packages, bench/) or from a root
// Example function — or must appear in the signature of an exported
// function or method, or in an exported struct field, of the root
// package. Root tests other than examples do not count: an option only
// a test sets belongs in core.Options, not on the facade.
func TestRootExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	exports := map[string]token.Position{}
	kept := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		root := filepath.Dir(path) == "."
		test := strings.HasSuffix(path, "_test.go")
		switch {
		case root && !test:
			collectRootExports(fset, f, exports, kept)
		case root:
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
					markRootRefs(f, fn, kept)
				}
			}
		case !test:
			markRootRefs(f, f, kept)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("no root exports found: run from the module root")
	}
	var unused []string
	for name, pos := range exports {
		if !kept[name] {
			unused = append(unused, pos.String()+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no user outside the root package's non-test files and is in no exported signature: delete it", u)
	}
}

// collectRootExports records f's exported package-level names and marks
// the root names its exported signatures and struct fields mention.
func collectRootExports(fset *token.FileSet, f *ast.File, exports map[string]token.Position, kept map[string]bool) {
	mark := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.Ident:
				kept[x.Name] = true
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				exports[d.Name.Name] = fset.Position(d.Name.Pos())
			} else if !receiverExported(d.Recv.List[0].Type) {
				continue
			}
			mark(d.Type)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					exports[s.Name.Name] = fset.Position(s.Name.Pos())
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						mark(s.Type)
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								mark(field.Type)
								break
							}
						}
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							exports[name.Name] = fset.Position(name.Pos())
						}
					}
				}
			}
		}
	}
}

func receiverExported(expr ast.Expr) bool {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	id, ok := expr.(*ast.Ident)
	return ok && id.IsExported()
}

// markRootRefs marks every root name n references as mrvd.X through f's
// import of the root package.
func markRootRefs(f *ast.File, n ast.Node, kept map[string]bool) {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "mrvd" {
			local = "mrvd"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := x.X.(*ast.Ident); ok && id.Name == local {
				kept[x.Sel.Name] = true
			}
		}
		return true
	})
}
