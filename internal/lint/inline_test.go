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
// non-generic one (nextRow, putRow, chunkWords, touchRow today) stays a
// call. A helper joins this list once it inlines there.
var inlinedHelpers = []string{"seedRows", "rangeWord"}

// TestHotHelpersInline builds ./algorithms with the compiler's inlining
// report and fails for every call site of an inlinedHelpers entry in
// internal/core's non-test files that the report does not show inlined.
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
	cmd := exec.Command(goBin, "build", "-gcflags=graphmat/algorithms=-m", "./algorithms")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./algorithms: %v\n%s", err, out)
	}
	inlined := map[string]bool{}
	re := regexp.MustCompile(`([^/\s]+\.go):(\d+):\d+: inlining call to core\.(\w+)`)
	for _, m := range re.FindAllStringSubmatch(string(out), -1) {
		inlined[m[3]+" "+m[1]+":"+m[2]] = true
	}
	for _, name := range inlinedHelpers {
		if len(sites[name]) == 0 {
			t.Errorf("%s: no call site in internal/core", name)
		}
		for _, at := range sites[name] {
			if !inlined[name+" "+at] {
				t.Errorf("%s: call at internal/core/%s is not inlined in algorithms", name, at)
			}
		}
	}
}

// helperCalls maps each inlinedHelpers name to the file:line of its calls in
// dir's non-test files, explicit instantiations included.
func helperCalls(t *testing.T, dir string) map[string][]string {
	want := map[string]bool{}
	for _, name := range inlinedHelpers {
		want[name] = true
	}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]string{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
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
				sites[id.Name] = append(sites[id.Name], fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line))
			}
			return true
		})
	}
	return sites
}
