package lint

import (
	"go/ast"
	"go/types"
)

// sharedTypes names the engine-shared structures of repro/internal/clean: a
// fan-out task writing through any of them races the other tasks and —
// worse — makes the output depend on goroutine scheduling. A task writes
// only its own task-indexed result slot, and the caller merges the slots in
// task order after the fan-out. The names are matched against types
// declared in the analyzed package, so fixtures can declare their own.
var sharedTypes = map[string]bool{
	"Engine":     true,
	"Result":     true,
	"Report":     true,
	"Checker":    true,
	"scheduler":  true,
	"groupIndex": true,
	"dirtySet":   true,
	"symtab":     true,
}

// workerScopeCalls are the functions whose function-literal arguments run on
// worker goroutines, making those literals worker-scoped alongside `go`
// statement bodies. fanOut is the engine's only one.
var workerScopeCalls = map[string]bool{
	"fanOut": true,
}

// SinkWrite flags writes to engine/matcher shared state — the Engine and
// its Result/Report, the Checker, the scheduler with its group indexes,
// dirty sets and symtabs — from worker-scoped code. Such a write races the
// other fan-out tasks and injects scheduling order into state the identity
// guarantee says is deterministic. Writes to tuple cells go through a local
// tuple binding (t := e.data.Tuples[i]) — writing through the engine chain
// directly is flagged on purpose, since the binding is what makes cell
// ownership visible.
//
// The check is alias-aware. On top of the selector-chain check it tracks,
// per enclosing function, the locals that alias shared state — through
// plain assignments, struct-field loads, index loads, and closure captures
// — and flags writes through those aliases too, which closes the laundering
// gap of a purely lexical check:
//
//	s := e.apply[ri] // *ApplyStats: a non-shared intermediate type
//	s.CTuples++      // reported as a write through an alias of Engine
//
// Worker-scope discovery is dataflow-extended too: beyond `go` statement
// bodies and literal arguments to fanOut, a literal bound to a local and
// then handed to fanOut, and a literal invoked from a worker-scoped body,
// are worker-scoped as well.
//
// The taint stops at the boundaries documented in dataflow.go: call
// results, owned tuple bindings, and non-reference value copies.
var SinkWrite = &Analyzer{
	Name:      "sinkwrite",
	Doc:       "write to shared engine state from worker-scoped code (alias-aware)",
	AppliesTo: func(path string) bool { return path == "repro/internal/clean" },
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sc := analyzeFunc(p, fd.Body)
				for _, body := range pruneNested(workerBodies(p, fd.Body, sc.lits)) {
					checkSinkWrites(p, sc, body)
				}
			}
		}
	},
}

// checkSinkWrites reports every assignment or inc/dec inside body whose
// target chain passes through a shared-typed value, directly or through a
// tainted local alias.
func checkSinkWrites(p *Pass, sc *funcScope, body *ast.BlockStmt) {
	report := func(target ast.Expr) {
		name, viaAlias := sharedWriteBase(p, sc.taint, target)
		if name == "" {
			return
		}
		if viaAlias {
			p.Reportf(target.Pos(),
				"write through a local alias of shared %s from worker-scoped code races the other fan-out tasks; write only the task's own result slot and merge after fanOut returns, or annotate //det:ok sinkwrite <reason>",
				name)
			return
		}
		p.Reportf(target.Pos(),
			"write through shared %s from worker-scoped code races the other fan-out tasks; write only the task's own result slot and merge after fanOut returns, or annotate //det:ok sinkwrite <reason>",
			name)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(x.X)
		}
		return true
	})
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.IndexExpr:
		return calleeName(&ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeName(&ast.CallExpr{Fun: fun.X})
	}
	return ""
}

// sharedTypeName returns the shared-type name behind t (directly or one
// pointer away) when t is declared in the analyzed package, else "".
func sharedTypeName(p *Pass, t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() != p.Pkg || !sharedTypes[obj.Name()] {
		return ""
	}
	return obj.Name()
}
