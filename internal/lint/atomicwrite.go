package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// atomicwrite enforces the crash-safe write discipline every durable
// file in this project must follow: tmp + write + fsync + rename +
// parent-dir sync, implemented once by statedir.ReplaceFile, which
// every replaced file (statedir entries, store heads, checkpoints,
// the sealed blob, the platform NV file) goes through.
// PR 7 fixed recovery trims that skipped the fsync half of this
// discipline — a crash after recovery could resurrect a torn tail the
// open had already repaired — and statedir.Dir.Write shipped for six
// PRs with a rename nothing ever fsynced. Two checks:
//
//  1. Raw persistence calls (os.WriteFile, os.Create, os.OpenFile with
//     O_CREATE, (*os.File).Write) outside the approved write helpers are
//     flagged: new durable files must go through statedir.ReplaceFile or
//     the WAL segment writers, not hand-roll the sequence. A helper is
//     approved by package path and name together, so a function that
//     merely shares an approved helper's name elsewhere is still
//     checked.
//  2. Every os.Rename — approved helpers included — must be preceded in
//     the same function by an fsync of the renamed file and followed by
//     a parent-directory sync, or the rename itself is not durable.
//
// Test files are exempt: tests stage fixture state, they do not persist
// trust-bearing files.

// approvedWriters are the functions allowed to touch the raw write
// primitives, keyed "<package path>.<function or method name>": the one
// atomic-replace helper plus the WAL segment writers, which follow the
// discipline at a larger granularity (segments are fsynced per batch).
var approvedWriters = map[string]bool{
	"vnfguard/internal/statedir.ReplaceFile": true, // the one tmp+fsync+rename+dir-sync helper
	"vnfguard/internal/translog.write":       true, // stream.write: the WAL segment batch writer
	"vnfguard/internal/translog.rotate":      true, // stream.rotate: opens fresh WAL segments
	"vnfguard/internal/translog.applyTrims":  true, // recovery's deferred truncate+fsync pass
}

// AtomicWrite is the durability-discipline analyzer.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "persisted files must go through the approved atomic write helpers, and every rename needs fsync-before and dir-sync-after",
	Run:  runAtomicWrite,
}

func runAtomicWrite(p *Pass) {
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWriteDiscipline(p, fd)
		}
	}
}

// callSites collects, in source order, the positions this analyzer
// cares about within one function body.
type callSites struct {
	renames  []token.Pos
	syncs    []token.Pos // f.Sync() on any receiver
	dirSyncs []token.Pos // syncDir-style helper calls
	raw      []*ast.CallExpr
	rawWhat  []string
}

func checkWriteDiscipline(p *Pass, fd *ast.FuncDecl) {
	var sites callSites
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case pkgFunc(p.Info, call, "os", "Rename"):
			sites.renames = append(sites.renames, call.Pos())
		case pkgFunc(p.Info, call, "os", "WriteFile"):
			sites.raw = append(sites.raw, call)
			sites.rawWhat = append(sites.rawWhat, "os.WriteFile")
		case pkgFunc(p.Info, call, "os", "Create"):
			sites.raw = append(sites.raw, call)
			sites.rawWhat = append(sites.rawWhat, "os.Create")
		case pkgFunc(p.Info, call, "os", "OpenFile") && openFileCreates(call):
			sites.raw = append(sites.raw, call)
			sites.rawWhat = append(sites.rawWhat, "os.OpenFile(O_CREATE)")
		default:
			if _, ok := methodCall(call, "Sync"); ok {
				sites.syncs = append(sites.syncs, call.Pos())
				return true
			}
			if isDirSyncHelper(call) {
				sites.dirSyncs = append(sites.dirSyncs, call.Pos())
				return true
			}
			if _, ok := methodCall(call, "Write"); ok && recvTypeNamed(p.Info, call, "os", "File") {
				sites.raw = append(sites.raw, call)
				sites.rawWhat = append(sites.rawWhat, "(*os.File).Write")
			}
		}
		return true
	})

	if !approvedWriters[p.PkgPath+"."+fd.Name.Name] {
		for i, call := range sites.raw {
			p.Reportf(call.Pos(),
				"raw %s outside the approved write helpers (statedir.ReplaceFile, WAL segment writers); persisted files must use the tmp+fsync+rename+dir-sync discipline",
				sites.rawWhat[i])
		}
	}

	for _, rename := range sites.renames {
		syncBefore := anyBefore(sites.syncs, rename)
		// The rename itself only becomes durable once the parent
		// directory is synced; either a dedicated helper (syncDir) or a
		// direct Sync on the opened directory after the rename counts.
		dirSyncAfter := anyAfter(sites.dirSyncs, rename) || anyAfter(sites.syncs, rename)
		switch {
		case !syncBefore && !dirSyncAfter:
			p.Reportf(rename, "os.Rename with no fsync of the renamed file before it and no parent-dir sync after it; a crash can lose or tear the replacement")
		case !syncBefore:
			p.Reportf(rename, "os.Rename not preceded by an fsync of the renamed file in this function; the renamed contents may not be durable")
		case !dirSyncAfter:
			p.Reportf(rename, "os.Rename not followed by a parent-directory sync in this function; the rename itself may not survive a crash")
		}
	}
}

// openFileCreates reports whether an os.OpenFile call's flag argument
// mentions O_CREATE (syntactically — the flags are always literal
// constants in this codebase).
func openFileCreates(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "O_CREATE" {
			found = true
		}
		return !found
	})
	return found
}

// isDirSyncHelper matches calls whose callee name contains "syncdir"
// (syncDir, SyncDir, fsyncDir…): the project's parent-directory sync
// helpers.
func isDirSyncHelper(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "syncdir")
}

func anyBefore(positions []token.Pos, ref token.Pos) bool {
	for _, p := range positions {
		if p < ref {
			return true
		}
	}
	return false
}

func anyAfter(positions []token.Pos, ref token.Pos) bool {
	for _, p := range positions {
		if p > ref {
			return true
		}
	}
	return false
}
