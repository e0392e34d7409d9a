package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// lockscope enforces the project's lock discipline on read paths. The
// sequencer's commit deliberately holds the log's write lock across its
// WAL fsync — that is the durability-before-visibility contract — which
// makes the converse rules load-bearing:
//
//  1. Read-lock regions stay fast: between X.RLock() and X.RUnlock()
//     (or function end, for a deferred RUnlock), no file I/O, fsync,
//     network call or sleep. A reader that blocks under an RLock
//     extends the window in which the committing writer — and every
//     other reader — is stuck behind it.
//  2. Proof paths never take the commit lock: methods serving proofs
//     (InclusionProof, ConsistencyProof, RootAt, ProveSerial — on
//     TileAssembler and TileProofSource — and the Log's Tile) must not
//     acquire their receiver's write lock, or every proof request
//     contends with a commit holding that lock across an fsync.
//     TestProofsDoNotBlockOnCommitLock pins it at run time; this check
//     pins it statically.
//
// The region tracking is lexical (source order within one function),
// which matches how every lock region in this codebase is written.

// proofMethods are the read-path methods that must never take a write
// lock.
var proofMethods = map[string]bool{
	"InclusionProof":   true,
	"ConsistencyProof": true,
	"RootAt":           true,
	"ProveSerial":      true,
	// Tile serving is the cacheable read path: a tile response is
	// immutable and must come from committed state only — never from
	// under the commit lock, where a mid-commit tree could leak
	// uncommitted nodes into a response caches keep forever.
	"Tile": true,
}

// LockScope is the lock-discipline analyzer.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "no blocking I/O under read locks, and proof paths never acquire the commit (write) lock",
	Run:  runLockScope,
}

func runLockScope(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRLockRegions(p, fd)
			if fd.Recv != nil && proofMethods[fd.Name.Name] && !p.IsTestFile(fd.Pos()) {
				checkProofLock(p, fd)
			}
		}
	}
}

// lockEvent is one lock-relevant call in source order.
type lockEvent struct {
	pos    int // byte offset for ordering
	kind   int // 0 RLock, 1 RUnlock, 2 deferred RUnlock, 3 blocking call
	lock   string
	detail string
	node   ast.Node
}

// checkRLockRegions flags blocking calls lexically inside RLock/RUnlock
// windows of one function body.
func checkRLockRegions(p *Pass, fd *ast.FuncDecl) {
	checkRLockBody(p, fd.Body)
}

// checkRLockBody runs the region check over one function body. Nested
// function literals are their own world — the locks they take run when
// they run, not where they are written — so each literal gets its own
// recursive pass and RLock state never leaks across the boundary.
func checkRLockBody(p *Pass, body *ast.BlockStmt) {
	var events []lockEvent
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkRLockBody(p, lit.Body)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		events = appendLockEvent(p, events, call, isDeferred(stack))
		return true
	})
	reportRLockViolations(p, events)
}

func isDeferred(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.DeferStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

func appendLockEvent(p *Pass, events []lockEvent, call *ast.CallExpr, deferred bool) []lockEvent {
	if recv, ok := methodCall(call, "RLock"); ok {
		return append(events, lockEvent{pos: int(call.Pos()), kind: 0, lock: exprText(recv), node: call})
	}
	if recv, ok := methodCall(call, "RUnlock"); ok {
		kind := 1
		if deferred {
			kind = 2
		}
		return append(events, lockEvent{pos: int(call.Pos()), kind: kind, lock: exprText(recv), node: call})
	}
	if what, ok := blockingCall(p, call); ok {
		return append(events, lockEvent{pos: int(call.Pos()), kind: 3, detail: what, node: call})
	}
	return events
}

func reportRLockViolations(p *Pass, events []lockEvent) {
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := map[string]bool{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.lock] = true
		case 1:
			delete(held, ev.lock)
		case 2:
			// Deferred RUnlock: the lock stays held to function end, so
			// leave it in the held set.
		case 3:
			if len(held) > 0 {
				locks := make([]string, 0, len(held))
				for l := range held {
					locks = append(locks, l)
				}
				sort.Strings(locks)
				p.Reportf(ev.node.Pos(),
					"%s while holding read lock %s; blocking I/O under an RLock stalls the committing writer and every other reader",
					ev.detail, strings.Join(locks, ", "))
			}
		}
	}
}

// blockingCall classifies calls that must not run under a read lock.
func blockingCall(p *Pass, call *ast.CallExpr) (string, bool) {
	for _, name := range [...]string{"Open", "OpenFile", "Create", "ReadFile", "WriteFile", "Remove", "RemoveAll", "Rename", "ReadDir", "Truncate"} {
		if pkgFunc(p.Info, call, "os", name) {
			return "os." + name, true
		}
	}
	if pkgFunc(p.Info, call, "time", "Sleep") {
		return "time.Sleep", true
	}
	for _, name := range [...]string{"Get", "Post", "PostForm", "Head"} {
		if pkgFunc(p.Info, call, "net/http", name) {
			return "http." + name, true
		}
	}
	if _, ok := methodCall(call, "Sync"); ok {
		return "Sync()", true
	}
	for _, name := range [...]string{"Write", "Read", "ReadAt", "WriteAt"} {
		if _, ok := methodCall(call, name); ok && recvTypeNamed(p.Info, call, "os", "File") {
			return "(*os.File)." + name, true
		}
	}
	for _, name := range [...]string{"Do", "Get", "Post", "Head"} {
		if _, ok := methodCall(call, name); ok && recvTypeNamed(p.Info, call, "net/http", "Client") {
			return "(*http.Client)." + name, true
		}
	}
	return "", false
}

// checkProofLock flags write-lock acquisitions on the receiver inside
// proof-serving methods.
func checkProofLock(p *Pass, fd *ast.FuncDecl) {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recvName := fd.Recv.List[0].Names[0].Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := methodCall(call, "Lock")
		if !ok {
			return true
		}
		if text := exprText(recv); text == recvName || strings.HasPrefix(text, recvName+".") {
			p.Reportf(call.Pos(),
				"proof path %s acquires write lock %s.Lock(); proofs must not contend with a commit holding that lock across fsync (use the tree's own read synchronisation)",
				fd.Name.Name, text)
		}
		return true
	})
}
