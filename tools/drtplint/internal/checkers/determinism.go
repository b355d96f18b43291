package checkers

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
)

// determinismDomain names the package-path segments that form the
// deterministic simulation core: the experiment engine's workers=1-vs-8
// bit-identical contract requires every one of these packages to draw
// randomness from label-derived rng streams, never read the wall clock,
// and never let Go's randomized map iteration order reach results or
// telemetry. The chaos layer (faultinject) is in the domain too: its
// replayability contract hinges on the injected clock and label-split rng
// streams. Live-protocol packages (router, transport, telemetry's wall
// clock) are deliberately outside the domain.
var determinismDomain = map[string]bool{
	"experiments": true,
	"sim":         true,
	"scenario":    true,
	"topology":    true,
	"drtp":        true,
	"flood":       true,
	"routing":     true,
	"lsdb":        true,
	"rng":         true,
	"graph":       true,
	"metrics":     true,
	"faultinject": true,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared, non-reproducible global source. Constructors (New, NewSource,
// NewZipf) are fine: they build explicit, seedable streams.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true,
}

// Determinism flags nondeterminism sources inside the simulation core:
// wall-clock reads (time.Now/Since/Until), global math/rand draws, and
// map iterations whose order can leak into results or telemetry (an
// append not followed by a sort, a telemetry emission, an output write,
// or a channel send inside the loop body).
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock reads, global math/rand use, and order-leaking " +
		"map iteration in the deterministic simulation packages",
	Run: runDeterminism,
}

// inDeterminismDomain reports whether the package path's last segment is
// part of the deterministic core (fixtures use bare segment names).
func inDeterminismDomain(path string) bool {
	seg := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		seg = path[i+1:]
	}
	return determinismDomain[seg]
}

func runDeterminism(pass *analysis.Pass) error {
	if !inDeterminismDomain(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		for _, fd := range funcDecls(file) {
			checkDeterminismFunc(pass, fd)
		}
	}
	return nil
}

func checkDeterminismFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkWallClockAndRand(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, fd, n)
		}
		return true
	})
}

// checkWallClockAndRand reports time.Now-style reads and global math/rand
// draws.
func checkWallClockAndRand(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch pkgNameOf(pass.TypesInfo, sel.X) {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in deterministic simulation code; derive timestamps from simulated time",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"global math/rand call rand.%s in deterministic simulation code; draw from a seeded rng.Source",
				sel.Sel.Name)
		}
	}
}

// checkMapRange reports map iterations whose visiting order can reach
// results or telemetry.
func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := types.Unalias(t).Underlying().(*types.Map); !ok {
		return
	}
	// Scan the loop body for order-publishing operations.
	var appendTargets []ast.Expr
	ordered := "" // what leaked the iteration order, for the message
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				call, ok := ast.Unparen(r).(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && i < len(n.Lhs) {
					appendTargets = append(appendTargets, n.Lhs[i])
				}
			}
		case *ast.CallExpr:
			if emitsTelemetry(pass.TypesInfo, n) {
				ordered = "a telemetry emission"
				return false
			}
			if writesOutput(pass.TypesInfo, n) {
				ordered = "an output write"
				return false
			}
		case *ast.SendStmt:
			ordered = "a channel send"
			return false
		}
		return true
	})
	if ordered != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order reaches %s; iterate a sorted key slice instead", ordered)
		return
	}
	for _, target := range appendTargets {
		if !sortedLater(pass, fd, target) {
			pass.Reportf(rng.Pos(),
				"map iteration appends to %s without a later sort; order is nondeterministic",
				types.ExprString(target))
			return
		}
	}
}

// emitsTelemetry reports whether the call is a telemetry.Tracer method or
// a Sink.Record call — event order must not depend on map order.
func emitsTelemetry(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if isNamed(t, "telemetry", "Tracer") || isNamed(t, "telemetry", "Registry") {
		return true
	}
	return sel.Sel.Name == "Record" && implementsSinkish(t)
}

// implementsSinkish loosely recognizes telemetry sinks: named types from a
// package called telemetry.
func implementsSinkish(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "telemetry"
}

// writesOutput recognizes fmt.Fprint*/Print* calls inside the loop body.
func writesOutput(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkgNameOf(info, sel.X) != "fmt" {
		return false
	}
	return strings.HasPrefix(sel.Sel.Name, "Fprint") || strings.HasPrefix(sel.Sel.Name, "Print")
}

// sortedLater reports whether the enclosing function later passes the
// append target to a sort.* or slices.Sort* call, which launders the map
// order back into a deterministic one.
func sortedLater(pass *analysis.Pass, fd *ast.FuncDecl, target ast.Expr) bool {
	want := types.ExprString(ast.Unparen(target))
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := pkgNameOf(pass.TypesInfo, sel.X)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, want) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprMentions reports whether arg textually contains the target
// expression (covers sort.Slice(x, ...), sort.Sort(byFoo(x)), &x, x[i:]).
func exprMentions(arg ast.Expr, want string) bool {
	if types.ExprString(ast.Unparen(arg)) == want {
		return true
	}
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}
