package mrvd_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
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
	err := walkGoFiles(func(path string) error {
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

// walkGoFiles calls fn with the path of every Go file under the module
// root, skipping hidden and testdata directories.
func walkGoFiles(fn func(path string) error) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		return fn(path)
	})
}

// internalExportAllowList names the exported internal/ declarations
// that TestInternalExportsHaveUsers lets stand although no program
// reaches them, each with the reason it stays. Keys read pkg.Name or
// pkg.Type.Method; a key that names no such declaration fails the test.
var internalExportAllowList = map[string]string{
	// References tests compare live code against.
	"queueing.ChainSim":             "the Monte-Carlo chain the closed-form ET is checked against",
	"queueing.ChainSim.Run":         "the Monte-Carlo chain the closed-form ET is checked against",
	"queueing.ChainResult":          "the Monte-Carlo chain's result",
	"queueing.ChainResult.MeanIdle": "the Monte-Carlo chain's realized mean idle time",
	"stats.Exponential":             "the Monte-Carlo chain's inter-arrival draw",
	"queueing.Model.StateProb":      "Eq. 6's state probabilities, whose sum and flow balance check the live P0",
	"roadnet.Graph.ShortestPath":    "the one-pair Dijkstra the road coster's cached and batched costs are checked against",
	"geo.Haversine":                 "the great-circle distance the equirectangular Equirect is checked against",
	// Seams tests drive.
	"sim.New":                 "builds a bare engine over a fixed trace for engine-level tests",
	"sim.Engine.Drivers":      "lets engine tests read the fleet after a run",
	"geo.Index.Position":      "lets index tests read an item's stored point",
	"sim.StateStore.SetClock": "lets StateStore tests inject the wall clock",
	"server.Server.Store":     "lets gateway tests read the session's order book",
	"server.Server.Collector": "lets gateway tests read the time-series collector",
	"lint.CheckDir":           "checks one golden fixture directory under a chosen import path",
}

// TestInternalExportsHaveUsers keeps the internal packages from growing
// back code no program runs. It type-checks every non-test package of
// the tree, bench/ included, and walks references out from what a
// program or a caller outside internal/ can reach: every declaration
// outside internal/ (bench/'s among them, which is what reaches
// internal/shard), package-level variables, init functions and
// internalExportAllowList. A method is also reached when its type is
// and reached code calls an interface method it implements, or, for a
// String or Error method, passes a value of its type to any call (fmt's
// among them, which make those calls). The test fails on every exported function,
// method or type declared under internal/ that the walk misses.
func TestInternalExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := checkTree(fset)
	if err != nil {
		t.Fatal(err)
	}
	type node struct {
		pkg      *checkedPackage
		decl     ast.Node
		obj      types.Object // the function, method or type; nil for a value spec
		exported bool         // reported when not reached
	}
	var (
		nodes   []*node
		byObj   = map[types.Object]*node{}
		live    = map[*node]bool{}
		queue   []*node
		methods []*node
		called  = map[*types.Func]bool{}     // interface methods reached code calls
		passed  = map[*types.TypeName]bool{} // types reached code passes as call arguments
	)
	reach := func(n *node) {
		if n != nil && !live[n] {
			live[n] = true
			queue = append(queue, n)
		}
	}
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.path, "mrvd/internal/")
		add := func(decl ast.Node, obj types.Object, exported bool) {
			n := &node{pkg: p, decl: decl, obj: obj, exported: internal && exported}
			nodes = append(nodes, n)
			if obj != nil {
				byObj[obj] = n
			}
			if !internal {
				reach(n)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d, p.info.Defs[d.Name], d.Name.IsExported())
					if d.Recv != nil {
						methods = append(methods, nodes[len(nodes)-1])
					} else if d.Name.Name == "init" {
						reach(nodes[len(nodes)-1])
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s, p.info.Defs[s.Name], s.Name.IsExported())
						case *ast.ValueSpec:
							add(s, nil, false)
							for _, name := range s.Names {
								byObj[p.info.Defs[name]] = nodes[len(nodes)-1]
							}
							if d.Tok == token.VAR {
								reach(nodes[len(nodes)-1])
							}
						}
					}
				}
			}
		}
	}
	allowed := map[string]bool{}
	for _, n := range nodes {
		if n.exported {
			if name := exportName(n.obj); internalExportAllowList[name] != "" {
				allowed[name] = true
				reach(n)
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(internalExportAllowList)) {
		if !allowed[key] {
			t.Errorf("internalExportAllowList names %s, which no exported internal/ declaration is: delete the entry", key)
		}
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			info := n.pkg.info
			ast.Inspect(n.decl, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.Ident:
					obj := info.Uses[x]
					if fn, ok := obj.(*types.Func); ok {
						if r := fn.Signature().Recv(); r != nil && types.IsInterface(r.Type()) {
							called[fn] = true
						}
					}
					reach(byObj[obj])
				case *ast.CallExpr:
					for _, arg := range x.Args {
						if typ := info.Types[arg].Type; typ != nil && !types.IsInterface(typ) {
							if named := namedOf(typ); named != nil {
								passed[named.Obj()] = true
							}
						}
					}
				}
				return true
			})
		}
		for _, m := range methods {
			if live[m] {
				continue
			}
			fn := m.obj.(*types.Func)
			named := namedOf(fn.Signature().Recv().Type())
			if !live[byObj[named.Obj()]] {
				continue
			}
			ptr := types.NewPointer(named)
			for c := range called {
				if c.Name() == fn.Name() && types.Implements(ptr, c.Signature().Recv().Type().Underlying().(*types.Interface)) {
					reach(m)
				}
			}
			if passed[named.Obj()] && (fn.Name() == "String" || fn.Name() == "Error") {
				reach(m)
			}
		}
	}
	var unreached []string
	for _, n := range nodes {
		if n.exported && !live[n] {
			unreached = append(unreached, fset.Position(n.decl.Pos()).String()+": "+exportName(n.obj))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached by no program: delete it, or allow-list it with the reason it stays", u)
	}
}

// namedOf returns the named type of typ or of the type typ points to.
func namedOf(typ types.Type) *types.Named {
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

// exportName renders obj as pkg.Name, or pkg.Type.Method for a method.
func exportName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		name += namedOf(fn.Signature().Recv().Type()).Obj().Name() + "."
	}
	return name + obj.Name()
}

// checkedPackage is one type-checked package of the tree.
type checkedPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// checkTree parses and type-checks the non-test files of every package
// under the module root, bench/'s module included (its import paths
// live under the root's). Packages of the tree are checked from source
// once each, so one declaration is one object across the tree; the
// standard library comes from export data.
func checkTree(fset *token.FileSet) ([]*checkedPackage, error) {
	files := map[string][]*ast.File{} // import path -> files
	err := walkGoFiles(func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "mrvd"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var (
		out     []*checkedPackage
		checked = map[string]*types.Package{}
		std     = importer.ForCompiler(fset, "gc", nil)
		imp     importerFunc
	)
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		out = append(out, &checkedPackage{path, files[path], info})
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
