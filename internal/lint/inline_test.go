package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inlinedHelpers lists the internal/core helpers on a per-partition,
// per-row or per-word fold path that must inline where the engine is
// instantiated. That is package algorithms, which imports only the graphmat
// facade, so the compiler inlines a helper there only if it is generic: a
// non-generic one stays a call. Every helper listed is generic; one joins
// the list once it inlines there.
var inlinedHelpers = []string{"seedRows", "rangeWord", "chunkWords", "nextRow", "putRow", "touchRow"}

// TestHotHelpersInline builds ./algorithms with the compiler's inlining
// report for it and for internal/core, and fails for every call site of an
// inlinedHelpers entry in internal/core's non-test files that the report
// does not show inlined: in algorithms for a site inside a generic function,
// which algorithms instantiates, and in internal/core for one inside a
// non-generic function (blockPathSinkF32.fold's touchRow), which is compiled
// there.
func TestHotHelpersInline(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	sites := helperCalls(t, filepath.Join(root, "internal", "core"))
	cmd := exec.Command(goBin, "build", "-gcflags=graphmat/algorithms=-m", "-gcflags=graphmat/internal/core=-m", "./algorithms")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./algorithms: %v\n%s", err, out)
	}
	// algorithms names an inlined core helper core.name, internal/core
	// names it bare.
	inlined := map[string]bool{}
	re := regexp.MustCompile(`([^/\s]+\.go):(\d+):\d+: inlining call to ((?:core\.)?\w+)`)
	for _, m := range re.FindAllStringSubmatch(string(out), -1) {
		inlined[m[3]+" "+m[1]+":"+m[2]] = true
	}
	for _, name := range inlinedHelpers {
		if len(sites[name]) == 0 {
			t.Errorf("%s: no call site in internal/core", name)
		}
		for _, site := range sites[name] {
			callee, where := name, "internal/core"
			if site.generic {
				callee, where = "core."+name, "algorithms"
			}
			if !inlined[callee+" "+site.at] {
				t.Errorf("%s: call at internal/core/%s is not inlined in %s", name, site.at, where)
			}
		}
	}
}

// callSite is one call of a helper: its file:line, and whether the function
// around it is generic (its own type parameters or its receiver's).
type callSite struct {
	at      string
	generic bool
}

// helperCalls maps each inlinedHelpers name to its calls in dir's non-test
// files, explicit instantiations included.
func helperCalls(t *testing.T, dir string) map[string][]callSite {
	want := map[string]bool{}
	for _, name := range inlinedHelpers {
		want[name] = true
	}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]callSite{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			generic := false
			if fn, ok := decl.(*ast.FuncDecl); ok {
				generic = fn.Type.TypeParams != nil
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch recv.(type) {
					case *ast.IndexExpr, *ast.IndexListExpr:
						generic = true
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := call.Fun
				switch x := fun.(type) {
				case *ast.IndexExpr:
					fun = x.X
				case *ast.IndexListExpr:
					fun = x.X
				}
				if id, ok := fun.(*ast.Ident); ok && want[id.Name] {
					p := fset.Position(call.Pos())
					at := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
					sites[id.Name] = append(sites[id.Name], callSite{at, generic})
				}
				return true
			})
		}
	}
	return sites
}
