package lint

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests lists the exported internal declarations — funcs, methods,
// types, vars and consts — no command, example, facade or benchmark file
// reaches, each with the reason it stays. Everything else exported in
// internal/... must be reachable from a non-test file.
var keptForTests = map[string]string{
	"internal/reference.Triangles":         "triangle-count oracle of the algorithm and baseline tests",
	"internal/reference.CFLoss":            "collaborative-filtering loss oracle of the algorithm and baseline tests",
	"internal/kernels.Supported":           "backend roster the engine and algorithm parity suites iterate",
	"internal/lint/analysistest.Run":       "fixture harness of the analyzer tests",
	"internal/sparse.CSR.ToCOO":            "round-trip oracle of the CSR build test",
	"internal/sparse.DCSC.ToCOO":           "round-trip oracle of the DCSC build test",
	"internal/sparse.Vector.GetChecked":    "presence-aware read (graphmat.Vector's, publicly) the SpMV and mode differentials compare outputs through",
	"internal/core.BlockState.ClearActive": "frontier reset of the block tests that reseed one state",
	"internal/graph.Graph.OverlayNNZ":      "overlay size (graphmat.Edges', publicly) the store and layered-walk tests assert",
	"internal/sparse.Vector.Len":           "dimension read of the sparse vector tests",
	"internal/sparse.Vector.Clear":         "single-entry removal of the sparse vector tests",
}

// stdlibIfaces are the standard-library interfaces through which the
// standard library calls this module's methods, which no selector in the
// module shows.
var stdlibIfaces = [][2]string{
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"container/heap", "Interface"},
}

// loader type-checks the module's packages from their non-test files,
// resolving the module's own import paths to those packages and the
// standard library through the source importer.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	std   types.Importer
}

func (l *loader) Import(ipath string) (*types.Package, error) {
	if l.files[ipath] == nil {
		return l.std.Import(ipath)
	}
	if p := l.pkgs[ipath]; p != nil {
		return p, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: l}).Check(ipath, l.fset, l.files[ipath], info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ipath], l.infos[ipath] = p, info
	return p, nil
}

// TestInternalFuncsAreReachable is the standing form of the "only what runs
// stays" audit: every exported package-level func, type, var and const of an
// internal/... package, and every exported method, must be used by a non-test
// .go file of a package that the commands, examples, facade, algorithms or
// benchmark/ reach through non-test imports. Uses are resolved by go/types
// over the module and benchmark/ (module graphmat/benchmark, so its import
// paths map onto directories like the rest): a method T.M counts as used
// when live code selects it on T — a generic type's method by its origin —
// or calls M through an interface (a type parameter's constraint included)
// whose methods T's method set has, or T satisfies a standard-library
// interface the standard library calls (stdlibIfaces). A type named only in
// its own methods' receivers is not used.
func TestInternalFuncsAreReachable(t *testing.T) {
	l, recvIdents := loadModule(t)
	fset := l.fset
	internal := func(ipath string) (dir string, ok bool) {
		dir = strings.TrimPrefix(ipath, module+"/")
		return dir, strings.HasPrefix(dir, "internal/")
	}

	// live: the packages reachable from everything outside internal/.
	live := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if live[p] || l.pkgs[p.Path()] == nil {
			return
		}
		live[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for ipath, p := range l.pkgs {
		if _, ok := internal(ipath); !ok {
			visit(p)
		}
	}

	used := map[types.Object]bool{}       // objects a live package names, by origin
	ifaces := map[*types.Interface]bool{} // interfaces whose methods live code calls
	for p := range live {
		for id, obj := range l.infos[p.Path()].Uses {
			if recvIdents[id] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Signature().Recv(); recv != nil {
					rt := recv.Type()
					if tp, ok := rt.(*types.TypeParam); ok {
						rt = tp.Constraint()
					}
					if iface, ok := rt.Underlying().(*types.Interface); ok {
						ifaces[iface] = true
					}
				}
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}
	for _, si := range stdlibIfaces {
		p, err := l.std.Import(si[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces[p.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface)] = true
	}

	// viaInterface reports whether method m is called through an interface
	// its receiver type's method set covers.
	viaInterface := func(m *types.Func) bool {
		recv := m.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		mset := types.NewMethodSet(types.NewPointer(recv))
		for iface := range ifaces {
			named, covered := false, true
			for i := 0; i < iface.NumMethods() && covered; i++ {
				im := iface.Method(i)
				named = named || im.Name() == m.Name()
				covered = mset.Lookup(im.Pkg(), im.Name()) != nil
			}
			if named && covered {
				return true
			}
		}
		return false
	}

	declared := map[string]types.Object{} // "internal/pkg.Name" or "internal/pkg.Type.Method"
	for ipath, p := range l.pkgs {
		dir, ok := internal(ipath)
		if !ok {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() {
				declared[dir+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declared[dir+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	reached := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		m, ok := obj.(*types.Func)
		return ok && m.Signature().Recv() != nil && viaInterface(m)
	}

	var dead []string
	for name, obj := range declared {
		if !reached(obj) && keptForTests[name] == "" {
			dead = append(dead, fset.Position(obj.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is used by no non-test file of a reachable package: delete it, or list it in keptForTests with a reason", d)
	}
	for name := range keptForTests {
		if obj, ok := declared[name]; !ok {
			t.Errorf("keptForTests lists %s, which no longer exists", name)
		} else if reached(obj) {
			t.Errorf("keptForTests lists %s, which non-test code now uses: drop the entry", name)
		}
	}
}

const module = "graphmat"

// loadModule type-checks the module and benchmark/ from their non-test files
// (see TestInternalFuncsAreReachable) and returns the loader with the type
// names that appear in method receivers.
func loadModule(t *testing.T) (*loader, map[*ast.Ident]bool) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()

	l := &loader{
		fset: fset, files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{},
		std: importer.ForCompiler(fset, "source", nil),
	}
	recvIdents := map[*ast.Ident]bool{} // type names in method receivers
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name, dir := d.Name(), filepath.Dir(p)
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recvIdents[id] = true
					}
					return true
				})
			}
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ipath := path.Join(module, filepath.ToSlash(rel))
		l.files[ipath] = append(l.files[ipath], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ipath := range l.files {
		if _, err := l.Import(ipath); err != nil {
			t.Fatal(err)
		}
	}
	return l, recvIdents
}

// TestEdgesLayerBoundary pins the split between a graph's edges and a run's
// vertex state. internal/graph (partitions, overlays, degrees, the store) and
// internal/snap (its file format) import neither internal/bitvec, where an
// active set would come from, nor internal/core, where a run's state lives;
// and every exported type of internal/graph is generic in at most the edge
// type E, never in a vertex type.
func TestEdgesLayerBoundary(t *testing.T) {
	l, _ := loadModule(t)
	for _, dir := range []string{"internal/graph", "internal/snap"} {
		p := l.pkgs[module+"/"+dir]
		if p == nil {
			t.Fatalf("%s did not load", dir)
		}
		for _, imp := range p.Imports() {
			if imp.Path() == module+"/internal/bitvec" || imp.Path() == module+"/internal/core" {
				t.Errorf("%s imports %s: vertex state belongs to the run, not the edges", dir, imp.Path())
			}
		}
	}
	scope := l.pkgs[module+"/internal/graph"].Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.TypeParams().Len(); i++ {
			if tp := named.TypeParams().At(i).Obj().Name(); tp != "E" {
				t.Errorf("graph.%s takes type parameter %s: a graph type is generic in its edge type E alone", name, tp)
			}
		}
	}
}
