// Package lint is graphmatlint: a suite of static analyzers that enforce the
// engine's correctness invariants at compile time. The differential test
// suites (kernel modes, layered overlays, block columns) prove the invariants
// hold on the inputs they happen to exercise; these analyzers enforce the
// properties that make those suites meaningful on every path in the tree:
//
//   - snappin: every Store.Acquire() pin is Release()d exactly once on every
//     path (early returns and error branches included), or provably handed
//     off to someone who will.
//   - detfold: no iteration-order nondeterminism (map range, sort.Slice)
//     inside the kernel/fold packages whose results must be bit-identical
//     across modes.
//   - ctxpoll: long partition loops poll the cooperative-cancellation stop
//     flag (or ctx) so a cancel never waits on a multi-second sweep.
//   - purefold: a program's fold operators (ProcessMessage, Reduce) are
//     pure — no receiver or global writes, no impure stdlib calls.
//   - bannedcalls: a deny-list (time.Now, fmt.Sprintf, panic, ...) for
//     hot-path packages.
//
// A finding is suppressed with an inline directive carrying a justification:
//
//	//lint:graphmat <analyzer>[,<analyzer>] <justification>
//
// The directive applies to its own source line and to the line directly
// below it (so it works both as a trailing comment and as a standalone
// comment above the offending line). A directive without a justification is
// itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"graphmat/internal/lint/analysis"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		SnappinAnalyzer,
		DetfoldAnalyzer,
		CtxpollAnalyzer,
		PurefoldAnalyzer,
		BannedcallsAnalyzer,
	}
}

// Finding is one diagnostic surviving suppression, attributed to its
// analyzer and resolved to a concrete position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "//lint:graphmat"

// directive is one parsed suppression comment.
type directive struct {
	line      int
	analyzers []string // analyzer names it suppresses
	justified bool     // carries a non-empty justification
	pos       token.Pos
}

// parseDirectives extracts every suppression directive in the file, keyed by
// nothing — callers index by line. Malformed directives are returned too
// (with justified=false) so the runner can report them.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
			if !ok {
				continue
			}
			rest = strings.TrimSpace(rest)
			name, justification, _ := strings.Cut(rest, " ")
			d := directive{
				line:      fset.Position(c.Pos()).Line,
				justified: strings.TrimSpace(justification) != "",
				pos:       c.Pos(),
			}
			for _, a := range strings.Split(name, ",") {
				if a = strings.TrimSpace(a); a != "" {
					d.analyzers = append(d.analyzers, a)
				}
			}
			out = append(out, d)
		}
	}
	return out
}

func (d directive) covers(name string, line int) bool {
	if line != d.line && line != d.line+1 {
		return false
	}
	for _, a := range d.analyzers {
		if a == name || a == "all" {
			return true
		}
	}
	return false
}

// Check runs the analyzers over one type-checked package, applies
// suppression directives, validates the directives themselves, and returns
// the surviving findings sorted by position.
func Check(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	var directives []directive
	for _, f := range files {
		directives = append(directives, parseDirectives(fset, f)...)
	}

	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}

	var findings []Finding
	for _, d := range directives {
		if !d.justified {
			findings = append(findings, Finding{
				Analyzer: "directive",
				Pos:      fset.Position(d.pos),
				Message:  "suppression directive requires a justification: //lint:graphmat <analyzer> <why this is safe>",
			})
			continue
		}
		for _, a := range d.analyzers {
			if !known[a] && a != "all" {
				findings = append(findings, Finding{
					Analyzer: "directive",
					Pos:      fset.Position(d.pos),
					Message:  fmt.Sprintf("suppression directive names unknown analyzer %q", a),
				})
			}
		}
	}

	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(diag analysis.Diagnostic) {
			pos := fset.Position(diag.Pos)
			for _, d := range directives {
				if d.justified && d.covers(name, pos.Line) {
					return
				}
			}
			findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: diag.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// pkgInScope reports whether a package path matches any pattern in a
// comma-separated scope list. A pattern matches the exact path or any path
// ending in "/<pattern>" (so fixture packages can stand in for the real
// tree), and a trailing "/..." matches the subtree.
func pkgInScope(path, scope string) bool {
	for _, pat := range strings.Split(scope, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") || strings.HasSuffix(path, "/"+sub) {
				return true
			}
			continue
		}
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file's position is in a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// calleeOf resolves a call expression to its callee object, when the callee
// is a named function, method or builtin (nil for calls through function
// values, conversions, etc.).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// calleeName returns the callee's name for name-pattern matching: the bare
// function or method name, or "" when unresolvable.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if obj := calleeOf(info, call); obj != nil {
		return obj.Name()
	}
	return ""
}

// matchNamePatterns reports whether name matches any comma-separated
// pattern; a trailing "*" makes the pattern a prefix match.
func matchNamePatterns(name, patterns string) bool {
	if name == "" {
		return false
	}
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		if pre, ok := strings.CutSuffix(pat, "*"); ok {
			if strings.HasPrefix(name, pre) {
				return true
			}
		} else if name == pat {
			return true
		}
	}
	return false
}
