package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapOrderSinkMethods are method names whose call order is observable:
// stream writers, encoders, hashes, printers. Feeding one from a map range
// bakes Go's randomized iteration order into the output.
var mapOrderSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
}

// MapOrder flags map iteration that feeds order-sensitive sinks unsorted.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: `maporder: map iteration feeding an ordered sink needs a deterministic sort

Go randomizes map iteration order per run. Ranging over a map while
appending to an outer slice, writing to an encoder/writer/hash, or
printing produces byte-different output on every execution — the classic
silent killer of byte-identical StudyResults (PR 2) and replay transcripts
(PR 4).

Two sanctioned shapes stay quiet:

  - collect-then-sort: append keys/values to a slice inside the range,
    then pass that same slice to sort.* / slices.Sort* (or any *Sort*
    helper) later in the function;
  - per-iteration state: appending to a slice declared inside the loop
    body, or writing map entries (out[k] = v), is order-insensitive.

Everything else gets a finding at the range statement.`,
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	pkgPath := pass.Pkg.Path()
	if !pathMatchesAny(pkgPath, []string{"internal", "cmd", modulePath}) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body)
		}
	}
}

// checkMapRanges inspects one function body: finds every range over a
// map-typed expression, looks for order-sensitive sinks in the loop body,
// and applies the collect-then-sort escape before reporting.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	// sortedExprs maps the canonical render of every expression passed to a
	// sort-like call to the position of that call. "Sort-like" is any
	// function from package sort or slices, or any callee whose name
	// contains "Sort" (covering repo-local helpers).
	sortedExprs := map[string][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if !isSortLike(pass.Info, call) {
			return true
		}
		key := exprString(call.Args[0])
		sortedExprs[key] = append(sortedExprs[key], call.Pos())
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if sink, target := findOrderSink(pass, rng); sink != nil {
			if target != "" {
				// Append sink: quiet if that slice is sorted later in the
				// same function, after the loop.
				for _, pos := range sortedExprs[target] {
					if pos > rng.End() {
						return true
					}
				}
				pass.Reportf(rng.Pos(),
					"map iteration appends to %s without a deterministic sort afterwards; sort the slice (or iterate sorted keys) before it becomes output", target)
				return true
			}
			pass.Reportf(rng.Pos(),
				"map iteration feeds an order-sensitive sink (%s); iterate sorted keys so the output is byte-identical across runs", describeSink(pass, sink))
		}
		return true
	})
}

// isSortLike reports whether the call is a sorting operation: anything from
// package sort or slices, or a callee whose name contains "Sort".
func isSortLike(info *types.Info, call *ast.CallExpr) bool {
	if pkg, _ := pkgFunc(info, call); pkg == "sort" || pkg == "slices" {
		return true
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.Contains(fun.Name, "Sort")
	case *ast.SelectorExpr:
		return strings.Contains(fun.Sel.Name, "Sort")
	}
	return false
}

// findOrderSink scans a map-range body for the first order-sensitive sink.
// It returns the sink node and, for append sinks, the canonical render of
// the appended-to expression (so the caller can apply the
// collect-then-sort escape); for writer/encoder/print sinks target is "".
func findOrderSink(pass *Pass, rng *ast.RangeStmt) (sink ast.Node, target string) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) with x declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.Info, call) || i >= len(n.Lhs) {
					continue
				}
				if declaredOutside(pass.Info, n.Lhs[i], rng) {
					sink, target = n, exprString(n.Lhs[i])
					return false
				}
			}
		case *ast.CallExpr:
			pkg, name := pkgFunc(pass.Info, n)
			if pkg == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				sink = n
				return false
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
					if fn.Type().(*types.Signature).Recv() != nil && mapOrderSinkMethods[sel.Sel.Name] {
						sink = n
						return false
					}
				}
			}
		}
		return true
	})
	return sink, target
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(info *types.Info, c *ast.CallExpr) bool {
	id, ok := ast.Unparen(c.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredOutside reports whether the root identifier of expr is declared
// outside the range statement — an inner-declared slice resets each
// iteration, so map order cannot leak through it.
func declaredOutside(info *types.Info, expr ast.Expr, rng *ast.RangeStmt) bool {
	root := expr
	for {
		switch e := root.(type) {
		case *ast.SelectorExpr:
			root = e.X
		case *ast.IndexExpr:
			root = e.X
		case *ast.StarExpr:
			root = e.X
		case *ast.ParenExpr:
			root = e.X
		default:
			goto done
		}
	}
done:
	id, ok := root.(*ast.Ident)
	if !ok {
		// Unresolvable shape: assume outer, better a reviewable finding
		// than a silent miss.
		return true
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// describeSink renders a short human label for a non-append sink node.
func describeSink(pass *Pass, n ast.Node) string {
	if c, ok := n.(*ast.CallExpr); ok {
		return exprString(c.Fun)
	}
	return "write"
}
