package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repo's bit-for-bit reproducibility contract in
// the pipeline packages: a fixed seed must reproduce the paper's skeletons
// exactly, so wall-clock reads, ambient randomness and order-sensitive map
// iteration are all findings.
//
// Three rules:
//
//  1. no time.Now — wall-clock is nondeterministic. The sanctioned timing
//     sites are the obs span clock (which also feeds every Stats duration)
//     and the cmd report stamps; each carries //lint:allow.
//  2. no math/rand package-level calls — the global source is unseeded and
//     process-global; randomness must flow through a seeded *rand.Rand.
//     Seeded constructors (rand.New(rand.NewSource(seed))) are sanctioned
//     via //lint:allow at the construction site; *rand.Rand method calls
//     are always fine.
//  3. no map iteration that accumulates into an outer slice without a
//     subsequent sort, and no map iteration that writes output directly —
//     Go randomizes map order per run. Collect-then-sort is the blessed
//     pattern (see coarse.go's pairSegs walk).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbids time.Now, global math/rand and order-sensitive map iteration " +
		"in the deterministic pipeline packages",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if fn.Name() == "Now" {
					p.Reportf(call.Pos(), "call to time.Now: wall-clock reads break seed reproducibility; "+
						"sanctioned timing sites need //lint:allow determinism <reason>")
				}
			case "math/rand", "math/rand/v2":
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() == nil && fn.Name() != "NewSource" {
					p.Reportf(call.Pos(), "call to %s.%s: randomness must flow through a seeded *rand.Rand; "+
						"annotate sanctioned seeded constructors with //lint:allow determinism <reason>",
						funcPkgPath(fn), fn.Name())
				}
			}
			return true
		})
		forEachFuncBody(f, func(body *ast.BlockStmt) {
			checkMapRanges(p, body)
		})
	}
}

// checkMapRanges flags order-sensitive map iteration inside one function
// body: loop bodies that append to a slice declared outside the loop with
// no later sort of that slice, and loop bodies that print.
func checkMapRanges(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[r.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkOneMapRange(p, body, r)
		return true
	})
}

func checkOneMapRange(p *Pass, body *ast.BlockStmt, r *ast.RangeStmt) {
	info := p.Pkg.Info

	// Rule 3b: output emitted per iteration can never be repaired by a
	// later sort.
	inspectSkippingFuncLits(r.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && funcPkgPath(fn) == "fmt" && isPrintFunc(fn.Name()) {
			p.Reportf(call.Pos(), "fmt.%s inside iteration over a map: output order is "+
				"nondeterministic; iterate sorted keys instead", fn.Name())
		}
		return true
	})

	// Rule 3a: appends into outer slices, redeemable by a sort after the
	// loop anywhere later in the same function body.
	type target struct {
		obj  types.Object
		name string
	}
	var targets []target
	inspectSkippingFuncLits(r.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			obj := rootObj(info, as.Lhs[i])
			if obj == nil || within(r, obj.Pos()) {
				continue // loop-local accumulator: ordering is confined
			}
			targets = append(targets, target{obj: obj, name: obj.Name()})
		}
		return true
	})
	for _, t := range targets {
		if sortedAfter(info, body, r, t.obj) {
			continue
		}
		p.Reportf(r.Pos(), "iterates over a map and appends to %q in map order with no "+
			"later sort: the result ordering is nondeterministic (collect keys, sort, "+
			"then iterate — or sort %q after the loop)", t.name, t.name)
	}
}

// sortedAfter reports whether obj is passed to a sort/slices sorting call
// positioned after the range statement within the same function body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, r *ast.RangeStmt, obj types.Object) bool {
	found := false
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= r.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || !isSortFunc(fn) {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(info, arg, obj) {
				found = true
				break
			}
		}
		return true
	})
	return found
}

func isSortFunc(fn *types.Func) bool {
	switch funcPkgPath(fn) {
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

func isPrintFunc(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}
