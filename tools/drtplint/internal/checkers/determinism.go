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
// streams. Live-protocol packages are outside the domain, held to the
// wall-clock half of the rule only (clockDomain).
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

// clockDomain names the live-protocol packages: they read the time and
// arm their timers on the transport's Clock, so that a manual clock moves
// all of it, and never on package time's wall clock. Their map iteration
// and randomness are their own business; their tests, which wait on
// goroutines, may use the wall clock.
var clockDomain = map[string]bool{
	"router":       true,
	"controlplane": true,
	"transport":    true,
}

// wallClockFuncs are package time's functions that read the wall clock
// (true) or arm a timer on it or sleep on it (false).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": false, "NewTicker": false, "AfterFunc": false,
	"After": false, "Tick": false, "Sleep": false,
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
// wall-clock reads (time.Now/Since/Until) and, outside tests, wall-clock
// timers and sleeps, global math/rand draws, and map iterations whose
// order can leak into results or telemetry (an append not followed by a
// sort, a telemetry emission, an output write, or a channel send inside
// the loop body). The live-protocol packages are held to the wall-clock
// rule outside their tests.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock reads and timers, global math/rand use, and order-leaking " +
		"map iteration in the deterministic simulation packages, and wall-clock use " +
		"in the protocol packages",
	Run: runDeterminism,
}

// inDomain reports whether the package path's last segment is in domain
// (fixtures use bare segment names).
func inDomain(path string, domain map[string]bool) bool {
	seg := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		seg = path[i+1:]
	}
	return domain[seg]
}

func runDeterminism(pass *analysis.Pass) error {
	core := inDomain(pass.Path, determinismDomain)
	if !core && !inDomain(pass.Path, clockDomain) {
		return nil
	}
	for _, file := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		if test && !core {
			continue
		}
		for _, fd := range funcDecls(file) {
			checkDeterminismFunc(pass, fd, core, test)
		}
	}
	return nil
}

func checkDeterminismFunc(pass *analysis.Pass, fd *ast.FuncDecl, core, test bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkWallClock(pass, n, core, test)
			if core {
				checkGlobalRand(pass, n)
			}
		case *ast.RangeStmt:
			if core {
				checkMapRange(pass, fd, n)
			}
		}
		return true
	})
}

// checkWallClock reports wall-clock reads, and outside tests wall-clock
// timers and sleeps: a test may wait on goroutines in wall time.
func checkWallClock(pass *analysis.Pass, call *ast.CallExpr, core, test bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || pkgNameOf(pass.TypesInfo, sel.X) != "time" {
		return
	}
	read, found := wallClockFuncs[sel.Sel.Name]
	if !found || test && !read {
		return
	}
	what := "read"
	if !read {
		what = "timer"
	}
	if core {
		pass.Reportf(call.Pos(),
			"wall-clock %s time.%s in deterministic simulation code; derive time from simulated time or an injected clock",
			what, sel.Sel.Name)
		return
	}
	pass.Reportf(call.Pos(),
		"wall-clock %s time.%s in protocol code; use the endpoint's transport.Clock",
		what, sel.Sel.Name)
}

// checkGlobalRand reports global math/rand draws.
func checkGlobalRand(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch pkgNameOf(pass.TypesInfo, sel.X) {
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
