// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check with its
// own flags, a Pass hands it one type-checked package, and diagnostics flow
// back through Pass.Report. The repo vendors no third-party modules, so the
// graphmatlint suite (internal/lint) is written against this shim instead of
// the upstream package; the surface is kept call-compatible so the analyzers
// could be ported to the real framework by changing one import path.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and suppression
	// directives. Must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: first line a one-sentence
	// summary, the rest the full invariant it enforces.
	Doc string

	// Flags holds analyzer-specific configuration. The driver exposes each
	// flag as -<name>.<flag>.
	Flags flag.FlagSet

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// String returns the analyzer's name.
func (a *Analyzer) String() string { return a.Name }

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver attaches suppression
	// handling behind it; analyzers just call it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
