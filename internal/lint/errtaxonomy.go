package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// errtaxonomy enforces the durable-state error taxonomy. Recovery
// distinguishes exactly three ways a statedir can lie —
// ErrStateCorrupt, ErrStateRollback, ErrStateTampered — and everything
// the operators and tests do with a refused open keys off errors.Is
// against those sentinels. PR 2 introduced the taxonomy; PR 7 extended
// it to checkpoints and compaction and fixed call sites that had
// quietly dropped it. Two checks:
//
//  1. Everywhere: comparing an error against a package-level Err*
//     sentinel with == or != breaks as soon as any layer wraps the
//     error (which the open paths all do, via %w) — errors.Is is the
//     only taxonomy-safe comparison.
//  2. In the open-path files (recover.go, checkpoint.go):
//     an error constructed with fmt.Errorf but no %w verb, or with
//     errors.New outside the package-level sentinel declarations,
//     escapes the taxonomy entirely — recovery failures must wrap a
//     sentinel or propagate the classified underlying error.

// taxonomyFiles are the open-path files whose escaping errors must stay
// inside the taxonomy.
var taxonomyFiles = map[string]bool{
	"recover.go":    true,
	"checkpoint.go": true,
}

// ErrTaxonomy is the error-taxonomy analyzer.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc:  "sentinel errors must be compared with errors.Is, and open-path errors must wrap the state taxonomy via %w",
	Run:  runErrTaxonomy,
}

func runErrTaxonomy(p *Pass) {
	for _, file := range p.Files {
		filename := filepath.Base(p.Fset.Position(file.Pos()).Filename)
		checkSentinelComparisons(p, file)
		if taxonomyFiles[filename] && !p.IsTestFile(file.Pos()) {
			checkTaxonomyEscapes(p, file)
		}
	}
}

// checkSentinelComparisons flags ==/!= against Err* sentinels.
func checkSentinelComparisons(p *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if name, ok := sentinelVar(p.Info, side); ok {
				p.Reportf(be.Pos(),
					"comparing an error to sentinel %s with %s; wrapped errors never match — use errors.Is",
					name, be.Op)
				return true
			}
		}
		return true
	})
}

// checkTaxonomyEscapes flags error constructions in the open-path files
// that cannot carry a sentinel.
func checkTaxonomyEscapes(p *Pass, file *ast.File) {
	// Package-level var blocks may declare the sentinels themselves with
	// errors.New; collect their ranges so those are not flagged.
	inTopLevelVar := func(pos token.Pos) bool {
		for _, d := range file.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR &&
				pos >= gd.Pos() && pos <= gd.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case pkgFunc(p.Info, call, "fmt", "Errorf"):
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && !strings.Contains(lit.Value, "%w") {
				p.Reportf(call.Pos(),
					"fmt.Errorf without %%w on an open path drops the ErrStateCorrupt/Tampered/Rollback taxonomy; wrap a sentinel or the classified underlying error")
			}
		case pkgFunc(p.Info, call, "errors", "New"):
			if !inTopLevelVar(call.Pos()) {
				p.Reportf(call.Pos(),
					"errors.New on an open path creates an unclassifiable error; wrap one of the state sentinels with fmt.Errorf and %%w")
			}
		}
		return true
	})
}
