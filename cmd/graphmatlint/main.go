// graphmatlint is the multichecker for the graphmatlint analyzer suite
// (internal/lint): snappin, detfold, ctxpoll, purefold, bannedcalls — the
// engine's correctness invariants, enforced at compile time.
//
// It runs under go vet, which is what `make lint` and CI run:
//
//	go vet -vettool=$(go env GOPATH)/bin/graphmatlint ./...
//
// go vet hands the tool one type-checked package at a time (export data for
// dependencies included), covers test files, and caches results. Any
// argument other than one unitchecker .cfg file is a usage error.
//
// The tool speaks cmd/go's vettool protocol (-V=full, -flags, unitchecker
// config files) with no dependency outside the standard library: the repo
// vendors nothing, so golang.org/x/tools/go/analysis/unitchecker is
// reimplemented here against internal/lint/analysis.
//
// Disable one analyzer with -<name>=false; configure with -<name>.<flag>.
// Suppress a single finding with an inline justified directive:
//
//	//lint:graphmat <analyzer> <justification>
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"

	"graphmat/internal/lint"
	"graphmat/internal/lint/analysis"
)

func main() {
	analyzers := lint.All()

	fs := flag.NewFlagSet("graphmatlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphmatlint [flags] <unitchecker.cfg>\n\nRun it as go vet -vettool=$(go env GOPATH)/bin/graphmatlint ./...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fs.PrintDefaults()
	}
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
		a.Flags.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (vet protocol)")

	args := os.Args[1:]
	// The two protocol probes cmd/go sends before any real work; they must
	// be answered before flag parsing (cmd/go passes exactly one of them).
	if len(args) == 1 && args[0] == "-V=full" {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		printFlags(fs)
		return
	}

	fs.Parse(args)
	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fs.Usage()
		os.Exit(2)
	}
	os.Exit(unitcheck(rest[0], active, *jsonOut))
}

// printVersion implements -V=full: cmd/go uses the output (which must have
// the form "<name> version <version>...") as the tool's cache key, so the
// binary's own hash is baked in — editing the tool invalidates vet's cache.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("graphmatlint version devel comments-go-here buildID=%02x\n", h.Sum(nil))
}

// printFlags implements -flags: cmd/go asks which flags the tool accepts
// before forwarding any.
func printFlags(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		out = append(out, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
}

// vetConfig is the JSON config cmd/go writes for each package when invoked
// as `go vet -vettool=...` (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes the single package described by a vet config file.
// Exit codes follow unitchecker: 0 clean, 1 tool failure, 2 findings.
func unitcheck(cfgFile string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "graphmatlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The analyzers use no cross-package facts, but the protocol requires a
	// facts ("vetx") file for dependents to consume.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("graphmatlint: no facts\n"), 0o666); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	if cfg.VetxOnly {
		// Dependency pass: facts only, no analysis wanted.
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	files, info, pkg, err := typecheck(fset, cfg.GoFiles, cfg.ImportPath, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if p, ok := cfg.ImportMap[path]; ok {
			path = p
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "graphmatlint: %v\n", err)
		return 1
	}

	findings, err := lint.Check(analyzers, fset, files, pkg, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphmatlint: %v\n", err)
		return 1
	}
	writeVetx()
	if jsonOut {
		printJSON(cfg.ImportPath, findings)
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.Pos, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// printJSON emits the unitchecker JSON shape:
// {"pkg": {"analyzer": [{"posn": ..., "message": ...}]}}.
func printJSON(pkgPath string, findings []lint.Finding) {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := map[string][]jsonDiag{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], jsonDiag{f.Pos.String(), f.Message})
	}
	data, err := json.MarshalIndent(map[string]map[string][]jsonDiag{pkgPath: byAnalyzer}, "", "\t")
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// typecheck parses and type-checks one package against compiler export data
// supplied by lookup.
func typecheck(fset *token.FileSet, goFiles []string, importPath, compiler string, lookup func(string) (io.ReadCloser, error)) ([]*ast.File, *types.Info, *types.Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, compiler, lookup),
		Sizes:    types.SizesFor(compiler, build()),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return files, info, pkg, nil
}

func build() string {
	if arch := os.Getenv("GOARCH"); arch != "" {
		return arch
	}
	out, err := exec.Command("go", "env", "GOARCH").Output()
	if err != nil {
		return "amd64"
	}
	return strings.TrimSpace(string(out))
}
