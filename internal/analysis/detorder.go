package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// modulePath scopes the package filters below; fixtures under
// testdata/src fake their import path with this prefix to opt in.
const modulePath = "github.com/uav-coverage/uavnet"

// detOrderPkgs are the deterministic-output packages: their artifacts
// (deployments, verification reports, scenario files) are compared
// byte-for-byte across resume/reference-oracle paths, so any ordered output
// influenced by map iteration order is a reproducibility bug.
var detOrderPkgs = map[string]bool{
	modulePath:                      true, // scenario_io and the facade
	modulePath + "/internal/core":   true,
	modulePath + "/internal/verify": true,
}

// DetOrder rejects the two ways nondeterminism has tried to enter the
// deterministic-output packages.
//
// Rule 1 (scoped to detOrderPkgs): a `range` over a map whose body appends
// to a slice is flagged unless a later statement in the same block sorts
// that slice (the collect-then-sort idiom); a body that writes output or
// feeds a hash (fmt.Fprint*/Print*, Write*, Sum methods, channel sends) is
// flagged unconditionally, because no after-the-fact sort can reorder bytes
// already emitted.
//
// Rule 2 (all library packages): calls to math/rand's package-level
// functions (rand.Intn, rand.Shuffle, ...) draw from the process-global
// source, which is shared across goroutines and unseedable per-run —
// deployments would differ run to run. Constructors (rand.New,
// rand.NewSource, rand.NewZipf) are fine: every solver path threads a
// seeded *rand.Rand.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "flag map-iteration-ordered output and global math/rand in deterministic packages",
	Run:  runDetOrder,
}

// globalRandExempt lists the math/rand package-level functions that do not
// touch the global source.
var globalRandExempt = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDetOrder(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	inDetPkg := detOrderPkgs[pass.Pkg.Path()]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if pkg, name, ok := packageFunc(pass.Info, n); ok &&
					(pkg == "math/rand" || pkg == "math/rand/v2") && !globalRandExempt[name] {
					pass.Reportf(n.Pos(), "rand.%s draws from the process-global source; thread a seeded *rand.Rand (rand.New(rand.NewSource(seed))) so runs are reproducible", name)
				}
			case *ast.BlockStmt:
				if inDetPkg {
					checkStmtList(pass, n.List)
				}
			case *ast.CaseClause:
				if inDetPkg {
					checkStmtList(pass, n.Body)
				}
			case *ast.CommClause:
				if inDetPkg {
					checkStmtList(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkStmtList examines each map-range statement in one statement list,
// with the list's tail available to recognize the collect-then-sort idiom.
func checkStmtList(pass *Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		checkMapRange(pass, rs, stmts[i+1:])
	}
}

// emitterMethods are method names whose call inside a map-range body means
// bytes left the loop in iteration order.
var emitterMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Sum": true, "Sum64": true, "Sum32": true,
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	// appendTargets maps the textual form of each append destination to the
	// position of the first offending append.
	type target struct {
		pos  ast.Node
		expr ast.Expr
	}
	var appends []target
	seen := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Direct emitters: fmt output and Write/Sum-style methods.
		if pkg, name, ok := packageFunc(pass.Info, call); ok && pkg == "fmt" &&
			(strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")) {
			pass.Reportf(call.Pos(), "fmt.%s inside a map-range emits output in map iteration order; collect into a slice and sort first", name)
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && emitterMethods[sel.Sel.Name] {
			if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				pass.Reportf(call.Pos(), "%s call inside a map-range feeds bytes in map iteration order; collect into a slice and sort first", sel.Sel.Name)
			}
			return true
		}
		// append(dst, ...): remember dst for the sort check below.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				key := types.ExprString(call.Args[0])
				if !seen[key] {
					seen[key] = true
					appends = append(appends, target{pos: call, expr: call.Args[0]})
				}
			}
		}
		return true
	})
	// Channel sends also emit in iteration order.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			pass.Reportf(send.Pos(), "channel send inside a map-range delivers values in map iteration order")
		}
		return true
	})
	for _, tgt := range appends {
		if sortedAfter(pass, rest, types.ExprString(tgt.expr)) {
			continue
		}
		pass.Reportf(tgt.pos.Pos(), "append to %s inside a map-range makes its order depend on map iteration; sort it afterwards (sort/slices) or iterate sorted keys", types.ExprString(tgt.expr))
	}
}

// sortedAfter reports whether some later statement in the same block calls a
// sort/slices function with the appended expression anywhere in its
// arguments — the collect-then-sort idiom that makes map iteration safe.
func sortedAfter(pass *Pass, rest []ast.Stmt, targetExpr string) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			pkg, _, ok := packageFunc(pass.Info, call)
			if !ok || (pkg != "sort" && pkg != "slices") {
				return true
			}
			for _, arg := range call.Args {
				mentions := false
				ast.Inspect(arg, func(sub ast.Node) bool {
					if e, ok := sub.(ast.Expr); ok && types.ExprString(e) == targetExpr {
						mentions = true
					}
					return !mentions
				})
				if mentions {
					found = true
					break
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
