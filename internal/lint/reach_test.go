package lint

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

// keptForTests lists the exported internal functions and methods no command,
// example, facade or benchmark file names, each with the reason it stays.
// Everything else in internal/... must be reachable by name from a non-test
// file.
var keptForTests = map[string]string{
	"internal/sparse.BuildPartitionedDCSC": "serial reference builder the parallel-build differentials compare against",
	"internal/reference.Triangles":         "triangle-count oracle of the algorithm and baseline tests",
	"internal/reference.CFLoss":            "collaborative-filtering loss oracle of the algorithm and baseline tests",
	"internal/kernels.Supported":           "backend roster the engine and algorithm parity suites iterate",
	"internal/lint/analysistest.Run":       "fixture harness of the analyzer tests",
	"internal/sparse.CSR.ToCOO":            "round-trip oracle of the CSR build test",
	"internal/sparse.DCSC.ToCOO":           "round-trip oracle of the DCSC build test",
	"internal/sparse.Vector.GetChecked":    "presence-aware read (graphmat.Vector's, publicly) the SpMV and mode differentials compare outputs through",
	"internal/core.BlockVector.ColMask":    "occupancy-checked mask read of the block kernel tests' naive folds",
	"internal/graph.Snapshot.View":         "private-state view of a pinned epoch (graphmat.Snapshot's, publicly) the store race and overlay differentials run on",
}

// stdlibCalls lists the method names the standard library calls through its
// own interfaces, which no selector in this module shows.
var stdlibCalls = map[string]string{
	"MarshalJSON":   "encoding/json.Marshaler",
	"UnmarshalJSON": "encoding/json.Unmarshaler",
	"Less":          "sort.Interface, under container/heap",
	"Swap":          "sort.Interface, under container/heap",
}

// TestInternalFuncsAreReachable is the standing form of the "only what runs
// stays" audit: an exported package-level func or exported method of an
// internal/... package must be named by a non-test .go file of a package
// that the commands, examples, facade, algorithms or benchmark/ reach through
// non-test imports. It is a by-name check over the syntax trees, so it needs
// no type information: a func is named by a qualified pkg.Name through the
// file's imports or a bare Name inside the declaring package; a method by any
// value.Name selector in a reachable package, whatever the value's type —
// which is how a call through an interface or a type parameter looks too —
// or by the standard library (stdlibCalls).
func TestInternalFuncsAreReachable(t *testing.T) {
	const module = "graphmat/"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()

	byDir := map[string][]*ast.File{} // slash-separated dir relative to root → non-test files
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		byDir[filepath.ToSlash(rel)] = append(byDir[filepath.ToSlash(rel)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// inModule resolves an import spec to the module-relative dir it names
	// ("graphmat" itself is the root dir "."), or ok=false for the stdlib.
	inModule := func(imp *ast.ImportSpec) (dir string, ok bool) {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		if ipath+"/" == module {
			return ".", true
		}
		return strings.TrimPrefix(ipath, module), strings.HasPrefix(ipath, module)
	}

	// live: the packages reachable from everything outside internal/.
	live := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if live[dir] {
			return
		}
		live[dir] = true
		for _, f := range byDir[dir] {
			for _, imp := range f.Imports {
				if target, ok := inModule(imp); ok {
					visit(target)
				}
			}
		}
	}
	for dir := range byDir {
		if !strings.HasPrefix(dir, "internal/") {
			visit(dir)
		}
	}

	declared := map[string]token.Pos{} // "internal/pkg.Func" or "internal/pkg.Type.Method" → its declaration
	used := map[string]bool{}          // the func keys, named from a live package
	methods := map[string]string{}     // the method keys → the bare method name
	called := map[string]bool{}        // names selected from a value in a live package
	for dir, files := range byDir {
		for _, f := range files {
			// Local import name → module-relative dir of an in-module import.
			imports := map[string]string{}
			for _, imp := range f.Imports {
				target, ok := inModule(imp)
				if !ok || len(byDir[target]) == 0 {
					continue
				}
				local := byDir[target][0].Name.Name
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = target
			}
			skip := map[*ast.Ident]bool{} // declaration names and selector fields
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					skip[n.Name] = true
					if strings.HasPrefix(dir, "internal/") && n.Name.IsExported() {
						key := dir + "." + n.Name.Name
						if n.Recv != nil {
							key = dir + "." + recvTypeName(n) + "." + n.Name.Name
							methods[key] = n.Name.Name
						}
						declared[key] = n.Pos()
					}
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if !live[dir] {
						break
					}
					if x, ok := n.X.(*ast.Ident); ok {
						if target, ok := imports[x.Name]; ok {
							used[target+"."+n.Sel.Name] = true
							break
						}
					}
					called[n.Sel.Name] = true
				case *ast.Ident:
					if !skip[n] && live[dir] {
						used[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	for key, name := range methods {
		used[key] = called[name] || stdlibCalls[name] != ""
	}

	var dead []string
	for name, pos := range declared {
		if !used[name] && keptForTests[name] == "" {
			dead = append(dead, fset.Position(pos).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named by no non-test file of a reachable package: delete it, or list it in keptForTests with a reason", d)
	}
	for name := range keptForTests {
		if _, ok := declared[name]; !ok {
			t.Errorf("keptForTests lists %s, which no longer exists", name)
		} else if used[name] {
			t.Errorf("keptForTests lists %s, which non-test code now names: drop the entry", name)
		}
	}
}
