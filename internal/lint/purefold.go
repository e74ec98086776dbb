package lint

// purefold enforces the purity contract of the fold operators. The engine's
// determinism story (and the batcher's ability to coalesce requests into one
// block run) rests on ProcessMessage/Reduce being pure functions: partitions
// fold in structure order, workers race freely, and the block engine replays
// the same operator across k columns. An operator that writes receiver or package state is a
// data race and an order dependence at once; one that calls into fmt, time
// or math/rand is impure (and allocates) on the hottest path in the system.
//
// Mechanically: a type qualifies as a program when it declares both
// ProcessMessage and Reduce. Inside those two methods the analyzer reports:
//
//   - assignments (incl. ++/--, op=) whose target is rooted at the receiver
//     or at a package-level variable — including such writes from closures;
//   - calls into fmt, time, math/rand, os or log;
//   - go statements and channel sends.
//
// SendMessage and Apply are deliberately out of scope: Apply mutates vertex
// state by contract, and both run once per vertex, not once per edge.

import (
	"flag"
	"go/ast"
	"go/types"
	"strings"

	"graphmat/internal/lint/analysis"
)

// PurefoldAnalyzer is the purefold analyzer.
var PurefoldAnalyzer = newPurefold()

var programMethods = map[string]bool{"ProcessMessage": true, "Reduce": true}

func newPurefold() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "purefold",
		Doc: "require vertex-program fold operators to be pure\n\n" +
			"ProcessMessage and Reduce run once per edge inside racing partition\n" +
			"workers, in structure order. Writing receiver or\n" +
			"global state, or calling impure stdlib (fmt, time, math/rand), makes\n" +
			"the fold order observable — the exact property the differential\n" +
			"suites exist to rule out.",
		Run: runPurefold,
	}
	a.Flags.Init("purefold", flag.ContinueOnError)
	a.Flags.String("deny", "fmt,time,math/rand,math/rand/v2,os,log",
		"comma-separated packages fold operators must not call into")
	return a
}

func runPurefold(pass *analysis.Pass) error {
	deny := pass.Analyzer.Flags.Lookup("deny").Value.String()

	// First pass: how many of the two operators each receiver type declares.
	// A type cannot declare a method twice, so two means both.
	operators := map[string]int{} // receiver type name -> count
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && programMethods[fd.Name.Name] {
				operators[recvTypeName(fd)]++
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !programMethods[fd.Name.Name] {
				continue
			}
			if recv := recvTypeName(fd); recv != "" && operators[recv] == 2 {
				checkFoldMethod(pass, fd, deny)
			}
		}
	}
	return nil
}

// recvTypeName extracts the receiver's type name, stripping pointers and
// type parameters.
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

func checkFoldMethod(pass *analysis.Pass, fd *ast.FuncDecl, deny string) {
	info := pass.TypesInfo

	// The receiver object, if named.
	var recvObj types.Object
	if names := fd.Recv.List[0].Names; len(names) == 1 && names[0].Name != "_" {
		recvObj = info.Defs[names[0]]
	}

	// isImpureTarget decides whether an assignment target escapes the
	// operator's frame: rooted at the receiver or at package-level state.
	isImpureTarget := func(e ast.Expr) (string, bool) {
		root := rootIdent(e)
		if root == nil {
			return "", false
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		if obj == nil {
			return "", false
		}
		if recvObj != nil && obj == recvObj {
			// Writing through (or to) the receiver. A bare `recv = ...` on a
			// value receiver only mutates the copy, but it is still an
			// order-dependence smell worth surfacing.
			return "receiver state", true
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
			return "package-level state", true
		}
		return "", false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if what, bad := isImpureTarget(lhs); bad {
					pass.Reportf(n.Pos(), "%s writes %s: fold operators must be pure (partitions fold in structure order, concurrently)", fd.Name.Name, what)
				}
			}
		case *ast.IncDecStmt:
			if what, bad := isImpureTarget(n.X); bad {
				pass.Reportf(n.Pos(), "%s writes %s: fold operators must be pure (partitions fold in structure order, concurrently)", fd.Name.Name, what)
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s starts a goroutine: fold operators must be pure and synchronous", fd.Name.Name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "%s sends on a channel: fold operators must be pure and synchronous", fd.Name.Name)
		case *ast.CallExpr:
			obj := calleeOf(info, n)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			pkg := obj.Pkg().Path()
			for _, d := range strings.Split(deny, ",") {
				if d = strings.TrimSpace(d); d != "" && pkg == d {
					pass.Reportf(n.Pos(), "%s calls %s.%s: fold operators must not use %s (impure and per-call allocation on the per-edge path)",
						fd.Name.Name, pkg, obj.Name(), d)
				}
			}
		}
		return true
	})
}

// rootIdent walks selector/index/star chains to the base identifier of an
// assignment target (p.x.y[i] -> p); nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}
