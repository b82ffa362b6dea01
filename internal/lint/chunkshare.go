package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChunkShare polices the data-ownership rule of the chunk-parallel
// primitives (graph.ParallelNodes / ParallelRange / ParallelChunks and the
// weighted ParallelRangeWeighted / ParallelChunksWeighted): the
// callback runs concurrently across chunks, so it may only write state its
// own chunk owns. Concretely, a write to a variable captured from outside
// the callback is flagged unless it is
//
//   - indexed by a chunk-local variable (out[v] = ..., queues[ci].push(...):
//     per-index ownership, the invariant the MS-BFS kernel, localsep and the
//     simnet round engine are bit-identical by),
//   - routed through sync/atomic (atomic calls are not assignments and pass
//     untouched), or
//   - made under a mutex the callback itself locks.
//
// Writes into captured maps are always flagged: Go map writes race even on
// distinct keys.
var ChunkShare = &Analyzer{
	Name: "chunkshare",
	Doc: "inside graph.ParallelNodes/ParallelRange/ParallelChunks callbacks (and their weighted forms), " +
		"captured state may only be written via chunk-local indexing, " +
		"sync/atomic, or a locally held mutex",
	Run: runChunkShare,
}

func runChunkShare(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isParallelPrimitive(info, call) || len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true // named callback: analyzed as its own FuncDecl elsewhere
			}
			checkChunkCallback(p, lit)
			return true
		})
	}
}

// isParallelPrimitive reports whether call invokes one of the internal/graph
// chunk-parallel drivers.
func isParallelPrimitive(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "ParallelNodes", "ParallelRange", "ParallelChunks",
		"ParallelRangeWeighted", "ParallelChunksWeighted":
	default:
		return false
	}
	path := funcPkgPath(fn)
	return path == "internal/graph" || hasPathSuffix(path, "/internal/graph")
}

func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix) && path[len(path)-len(suffix):] == suffix
}

// checkChunkCallback flags non-chunk-owned writes inside one callback
// literal. Nested closures are included — a write races no matter how many
// literals deep it hides.
func checkChunkCallback(p *Pass, lit *ast.FuncLit) {
	info := p.Pkg.Info

	// Everything declared inside the literal (parameters, loop variables,
	// locals) is chunk-local; writes reached through it are owned.
	local := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})

	// Lexical positions of mutex acquisitions inside the callback: a write
	// after one is treated as guarded.
	var lockPositions []token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, op := mutexOp(info, call); op == "Lock" || op == "RLock" {
				lockPositions = append(lockPositions, call.Pos())
			}
		}
		return true
	})
	guarded := func(pos token.Pos) bool {
		for _, lp := range lockPositions {
			if lp < pos {
				return true
			}
		}
		return false
	}

	report := func(expr ast.Expr, base types.Object, isMap bool) {
		if guarded(expr.Pos()) {
			return
		}
		if isMap {
			p.Reportf(expr.Pos(), "write into captured map %s inside a parallel chunk callback: "+
				"map writes race even on distinct keys; use a per-chunk map or merge after the join",
				base.Name())
			return
		}
		p.Reportf(expr.Pos(), "write to captured %s inside a parallel chunk callback without "+
			"chunk-local indexing, sync/atomic, or a held lock: chunks race and the result "+
			"depends on the schedule", base.Name())
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // := declares chunk-locals
			}
			for _, lhs := range st.Lhs {
				checkChunkWrite(info, lhs, local, report)
			}
		case *ast.IncDecStmt:
			checkChunkWrite(info, st.X, local, report)
		}
		return true
	})
}

// checkChunkWrite classifies one write target. It unwraps the selector /
// index / dereference chain down to the base identifier: a base declared in
// the callback is owned; a captured base is sanctioned only when some index
// step on the path mentions a chunk-local variable (and the indexed
// container is not a map).
func checkChunkWrite(info *types.Info, lhs ast.Expr, local map[types.Object]bool,
	report func(ast.Expr, types.Object, bool)) {

	expr := ast.Unparen(lhs)
	localIndexed := false
	mapWrite := false
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			if tv, ok := info.Types[e.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mapWrite = true
				}
			}
			if mentionsAnyLocal(info, e.Index, local) {
				localIndexed = true
			}
			expr = ast.Unparen(e.X)
		case *ast.StarExpr:
			expr = ast.Unparen(e.X)
		case *ast.SelectorExpr:
			expr = ast.Unparen(e.X)
		case *ast.Ident:
			if e.Name == "_" {
				return
			}
			obj := info.Uses[e]
			if obj == nil || local[obj] {
				return // chunk-local base: owned by this chunk
			}
			if v, ok := obj.(*types.Var); !ok || v == nil {
				return // not a variable (type name, package) — not a write target
			}
			if mapWrite {
				report(lhs, obj, true)
				return
			}
			if localIndexed {
				return // per-index ownership: sanctioned
			}
			report(lhs, obj, false)
			return
		default:
			return // index into call result etc.: no stable base to reason about
		}
	}
}

// mentionsAnyLocal reports whether expr references any chunk-local object.
func mentionsAnyLocal(info *types.Info, expr ast.Expr, local map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && local[obj] {
				found = true
			}
		}
		return true
	})
	return found
}
