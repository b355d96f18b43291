package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
)

// LockOrder walks every function body once over the set of held locks.
// The walk enforces the invariants that keep the concurrent layers
// deadlock-free and their shared state consistent:
//
//   - guarded fields: a struct field annotated "guarded by <mu>" is
//     touched, in a method of its struct, only while <mu> is held; an
//     annotation naming a missing or non-mutex field is itself a finding;
//   - acquisition-order cycles: if any execution acquires lock B while
//     holding A, no execution may acquire A while holding B (directly or
//     through calls; lock identity is per mutex *field* of a named
//     struct, the granularity at which the repo documents its order);
//   - no blocking while locked: channel sends/receives, selects without
//     a default, sync.WaitGroup/Cond Wait, time.Sleep, network I/O and
//     dynamically-dispatched telemetry Record calls must not happen in a
//     critical section;
//   - no double-lock: (re)acquiring a mutex the function already holds,
//     including through a callee, deadlocks a sync.Mutex outright.
//
// The graph is assembled from direct Lock/RLock sites plus call edges:
// same-package callees contribute their transitively-acquired locks;
// cross-package callees on a struct that carries a mutex field are
// conservatively assumed to acquire it (the repo's "guarded by mu" style
// keeps one mutex per shared structure), except callees whose name ends
// in "Locked" — by convention they run under an already-held lock. The
// body of a "...Locked" method is in turn walked with that lock held: the
// mutexes its receiver's "guarded by" annotations name for the fields the
// body touches, so its guarded accesses pass and what it acquires or
// calls is ordered after the caller's lock.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "flags 'guarded by mu' fields touched outside the mutex, lock-acquisition-order " +
		"cycles, blocking operations inside critical sections, and double-locking",
	Run: runLockOrder,
}

// LockEdge is one acquisition-order edge: To was (possibly transitively)
// acquired while From was held. Keys are package-qualified:
// "pkg.Type.field" for mutex fields, "pkg.var" for package-level mutexes.
type LockEdge struct {
	From, To string
	Pos      token.Pos
}

// CollectLockEdges returns the package's lock-acquisition graph without
// reporting diagnostics; the repo's lock-graph golden test merges the
// edges of several packages and asserts global acyclicity.
func CollectLockEdges(pass *analysis.Pass) []LockEdge {
	lo := newLockOrder(pass)
	lo.analyze(nil)
	return lo.edges
}

func runLockOrder(pass *analysis.Pass) error {
	lo := newLockOrder(pass)
	lo.analyze(pass)
	lo.reportCycles(pass)
	return nil
}

// funcSummary is the per-function result of the first pass.
type funcSummary struct {
	decl *ast.FuncDecl
	// acquires holds the lock keys this function locks directly.
	acquires map[string]bool
	// calls records same-package call sites with the locks held there.
	calls []callSite
}

type callSite struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

type lockOrder struct {
	pass      *analysis.Pass
	guarded   map[string]*guardedStruct
	summaries map[*types.Func]*funcSummary
	edges     []LockEdge
	edgeSeen  map[[2]string]bool
}

func newLockOrder(pass *analysis.Pass) *lockOrder {
	return &lockOrder{
		pass:      pass,
		guarded:   collectGuardedStructs(pass),
		summaries: make(map[*types.Func]*funcSummary),
		edgeSeen:  make(map[[2]string]bool),
	}
}

// analyze walks every function twice: once to build summaries, once to
// emit edges and (when report is non-nil) the local diagnostics.
func (lo *lockOrder) analyze(report *analysis.Pass) {
	var decls []*ast.FuncDecl
	for _, file := range lo.pass.Files {
		for _, fd := range funcDecls(file) {
			decls = append(decls, fd)
			if obj := lo.funcObj(fd); obj != nil {
				lo.summaries[obj] = &funcSummary{decl: fd, acquires: make(map[string]bool)}
			}
		}
	}
	// Pass 1: direct acquisitions and call sites.
	for _, fd := range decls {
		obj := lo.funcObj(fd)
		if obj == nil {
			continue
		}
		w := &lockOrderWalker{lo: lo, summary: lo.summaries[obj]}
		w.stmts(fd.Body.List, lo.heldOnEntry(fd))
	}
	// Pass 2: transitive closure of acquires over same-package calls.
	lo.closeAcquires()
	// Pass 3: edges and diagnostics.
	for _, fd := range decls {
		obj := lo.funcObj(fd)
		if obj == nil {
			continue
		}
		w := &lockOrderWalker{lo: lo, summary: lo.summaries[obj], report: report, emit: true}
		if id := recvIdent(fd); id != nil {
			w.recv, w.guards = lo.pass.TypesInfo.Defs[id], lo.guarded[recvTypeName(fd)]
		}
		w.stmts(fd.Body.List, lo.heldOnEntry(fd))
	}
}

// heldOnEntry returns the locks held when fd's body starts: none, except
// for a "...Locked" method, which starts under the mutexes guarding the
// receiver fields it touches.
func (lo *lockOrder) heldOnEntry(fd *ast.FuncDecl) *heldSet {
	held := newHeldSet()
	gs := lo.guarded[recvTypeName(fd)]
	if gs == nil || !strings.HasSuffix(fd.Name.Name, "Locked") {
		return held
	}
	mus := make(map[string]bool)
	for field := range fieldMentions(lo.pass, fd) {
		if mu, ok := gs.fields[field]; ok {
			mus[mu] = true
		}
	}
	for _, mu := range sortedKeys(mus) {
		held.lock(lo.guardKey(gs, mu), false)
	}
	return held
}

// guardKey is the lock key of the mutex field mu of a guarded struct.
func (lo *lockOrder) guardKey(gs *guardedStruct, mu string) string {
	return lo.pass.Pkg.Name() + "." + gs.name + "." + mu
}

// guardedRE matches a "guarded by <mutex>" field annotation, e.g.
//
//	// conns holds active connections; guarded by mu.
var guardedRE = regexp.MustCompile(`guarded by (\w+)`)

// guardedStruct records one annotated struct.
type guardedStruct struct {
	name   string
	fields map[string]string // guarded field -> mutex field
}

// collectGuardedStructs finds the package's structs with guarded-by
// annotations, reporting annotations that name no sync.Mutex/RWMutex
// field of the struct.
func collectGuardedStructs(pass *analysis.Pass) map[string]*guardedStruct {
	out := make(map[string]*guardedStruct)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if gs := guardedFields(pass, ts); gs != nil {
						out[ts.Name.Name] = gs
					}
				}
			}
		}
	}
	return out
}

// guardedFields returns the guarded fields of one struct declaration, or
// nil when it has none.
func guardedFields(pass *analysis.Pass, ts *ast.TypeSpec) *guardedStruct {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	fieldTypes := make(map[string]ast.Expr)
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			fieldTypes[n.Name] = f.Type
		}
	}
	gs := &guardedStruct{name: ts.Name.Name, fields: make(map[string]string)}
	for _, f := range st.Fields.List {
		mu := guardAnnotation(f)
		if mu == "" {
			continue
		}
		muType, ok := fieldTypes[mu]
		if !ok {
			pass.Reportf(f.Pos(), "guarded by %s: struct %s has no field %s", mu, ts.Name.Name, mu)
			continue
		}
		if !isMutexValue(pass.TypesInfo, muType) {
			pass.Reportf(f.Pos(), "guarded by %s: field %s is not a sync.Mutex or sync.RWMutex", mu, mu)
			continue
		}
		for _, n := range f.Names {
			gs.fields[n.Name] = mu
		}
	}
	if len(gs.fields) == 0 {
		return nil
	}
	return gs
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment.
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// closeAcquires folds each same-package callee's acquisitions into its
// callers until a fixpoint (the call graph is small; a bounded loop
// converges in at most |functions| rounds).
func (lo *lockOrder) closeAcquires() {
	for changed := true; changed; {
		changed = false
		for _, s := range lo.summaries {
			for _, cs := range s.calls {
				callee, ok := lo.summaries[cs.callee]
				if !ok {
					continue
				}
				for k := range callee.acquires {
					if !s.acquires[k] {
						s.acquires[k] = true
						changed = true
					}
				}
			}
		}
	}
}

func (lo *lockOrder) funcObj(fd *ast.FuncDecl) *types.Func {
	f, _ := lo.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return f
}

func (lo *lockOrder) addEdge(from, to string, pos token.Pos) {
	key := [2]string{from, to}
	if lo.edgeSeen[key] {
		return
	}
	lo.edgeSeen[key] = true
	lo.edges = append(lo.edges, LockEdge{From: from, To: to, Pos: pos})
}

// reportCycles flags every edge that closes a cycle in the acquisition
// graph: its target can already reach its source. Each offending site
// gets its own diagnostic, so every link of a deadlock loop is surfaced
// for a fix or a justified suppression.
func (lo *lockOrder) reportCycles(pass *analysis.Pass) {
	adj := make(map[string][]string)
	for _, e := range lo.edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, e := range lo.edges {
		if e.From == e.To {
			pass.Reportf(e.Pos, "lock-order: %s acquired while already held (self-deadlock)", e.To)
			continue
		}
		if reaches(adj, e.To, e.From) {
			pass.Reportf(e.Pos,
				"lock-order cycle: %s acquired while holding %s, but %s is also acquired while (transitively) holding %s",
				e.To, e.From, e.From, e.To)
		}
	}
}

// reaches reports whether src can reach dst in the edge adjacency.
func reaches(adj map[string][]string, src, dst string) bool {
	seen := map[string]bool{src: true}
	stack := []string{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

// heldSet tracks the locks held at a point of the walk, preserving
// acquisition order for diagnostics.
type heldSet struct {
	order []string
	// rdOnly marks locks whose current hold is a read lock.
	rdOnly map[string]bool
}

func newHeldSet() *heldSet {
	return &heldSet{rdOnly: make(map[string]bool)}
}

func (h *heldSet) clone() *heldSet {
	c := &heldSet{order: append([]string(nil), h.order...), rdOnly: make(map[string]bool, len(h.rdOnly))}
	for k, v := range h.rdOnly {
		c.rdOnly[k] = v
	}
	return c
}

func (h *heldSet) holds(key string) bool {
	for _, k := range h.order {
		if k == key {
			return true
		}
	}
	return false
}

func (h *heldSet) lock(key string, read bool) {
	if !h.holds(key) {
		h.order = append(h.order, key)
	}
	h.rdOnly[key] = read
}

func (h *heldSet) unlock(key string) {
	for i, k := range h.order {
		if k == key {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	delete(h.rdOnly, key)
}

// lockOrderWalker is the statement walker shared by the summary and
// emission passes. It is deliberately linear: statements are visited in
// order and lock-state changes inside a branch or loop do not escape it,
// matching the repo's Lock/defer-Unlock style.
type lockOrderWalker struct {
	lo      *lockOrder
	summary *funcSummary
	// report receives diagnostics in the emission pass; emit also turns
	// on edge recording (the summary pass only gathers acquires/calls).
	report *analysis.Pass
	emit   bool
	// recv and guards are set for a method of a guarded struct: accesses
	// to recv's guarded fields are checked against the held set.
	recv   types.Object
	guards *guardedStruct
}

func (w *lockOrderWalker) stmts(list []ast.Stmt, held *heldSet) {
	for _, stmt := range list {
		w.stmt(stmt, held)
	}
}

func (w *lockOrderWalker) stmt(stmt ast.Stmt, held *heldSet) {
	switch s := stmt.(type) {
	case nil:
		return
	case *ast.ExprStmt:
		if key, op, pos := w.mutexCall(s.X); key != "" {
			w.lockOp(key, op, pos, held)
			return
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		if key, op, _ := w.mutexCall(s.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
			return // defer mu.Unlock(): held to function end
		}
		w.expr(s.Call, held)
	case *ast.GoStmt:
		// The goroutine runs at an unknown time with no lock inherited.
		w.expr(s.Call, newHeldSet())
	case *ast.SendStmt:
		w.blocking("channel send", s.Arrow, held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					w.expr(v, held)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			w.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		inner := held.clone()
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		w.stmts(s.Body.List, inner)
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		w.caseClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		w.caseClauses(s.Body, held)
	case *ast.SelectStmt:
		if len(held.order) > 0 && !selectHasDefault(s) {
			w.blocking("select without default", s.Select, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.clone()
				if cc.Comm != nil {
					w.commStmt(cc.Comm, inner)
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// commStmt visits a select communication clause without re-reporting the
// send/receive itself (the enclosing select is the blocking point).
func (w *lockOrderWalker) commStmt(stmt ast.Stmt, held *heldSet) {
	switch s := stmt.(type) {
	case *ast.SendStmt:
		w.exprSkipBlocking(s.Chan, held)
		w.exprSkipBlocking(s.Value, held)
	case *ast.ExprStmt:
		w.exprSkipBlocking(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprSkipBlocking(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	default:
		w.stmt(stmt, held)
	}
}

func (w *lockOrderWalker) caseClauses(body *ast.BlockStmt, held *heldSet) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			inner := held.clone()
			for _, e := range cc.List {
				w.expr(e, inner)
			}
			w.stmts(cc.Body, inner)
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockOp applies one Lock/Unlock to the held set, recording edges and
// double-lock diagnostics in the emission pass.
func (w *lockOrderWalker) lockOp(key, op string, pos token.Pos, held *heldSet) {
	switch op {
	case "Lock", "RLock":
		read := op == "RLock"
		if held.holds(key) {
			// Recursive RLock is legal (if inadvisable); any combination
			// involving a write lock deadlocks.
			if w.report != nil && (!read || !held.rdOnly[key]) {
				w.report.Reportf(pos, "lock-order: %s.%s while %s is already held (double-lock)",
					key, op, key)
			}
			return
		}
		if w.emit {
			for _, h := range held.order {
				w.lo.addEdge(h, key, pos)
			}
		}
		w.summary.acquires[key] = true
		held.lock(key, read)
	case "Unlock", "RUnlock":
		held.unlock(key)
	}
}

// expr scans an expression for lock-relevant events: guarded-field
// accesses, receives, blocking calls, and call edges. Function literals
// are skipped — their execution time is unknown, so they are out of
// scope for this linear analysis (goroutine bodies are checked lock-free
// via the GoStmt case).
func (w *lockOrderWalker) expr(e ast.Expr, held *heldSet) {
	w.exprInner(e, held, false)
}

func (w *lockOrderWalker) exprSkipBlocking(e ast.Expr, held *heldSet) {
	w.exprInner(e, held, true)
}

func (w *lockOrderWalker) exprInner(e ast.Expr, held *heldSet, skipBlocking bool) {
	if e == nil {
		return
	}
	skipRoot := ast.Unparen(e)
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !(skipBlocking && n == skipRoot) {
				w.blocking("channel receive", n.OpPos, held)
			}
		case *ast.CallExpr:
			w.call(n, held)
		case *ast.SelectorExpr:
			w.guardedAccess(n, held)
		}
		return true
	})
}

// guardedAccess reports, in the emission pass, a read or write of one of
// the receiver's guarded fields while its mutex is not held.
func (w *lockOrderWalker) guardedAccess(sel *ast.SelectorExpr, held *heldSet) {
	if w.report == nil || w.guards == nil || w.recv == nil || !isIdentFor(w.lo.pass.TypesInfo, sel.X, w.recv) {
		return
	}
	mu, guarded := w.guards.fields[sel.Sel.Name]
	if !guarded || held.holds(w.lo.guardKey(w.guards, mu)) {
		return
	}
	w.report.Reportf(sel.Pos(), "access to field %s (guarded by %s) outside %s critical section",
		sel.Sel.Name, mu, mu)
}

// call handles one call expression: blocking classification, same-package
// call-site recording, and the cross-package mutex-field heuristic.
func (w *lockOrderWalker) call(call *ast.CallExpr, held *heldSet) {
	info := w.lo.pass.TypesInfo
	if desc := blockingCallDesc(info, call); desc != "" {
		w.blocking(desc, call.Pos(), held)
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return
	}
	if strings.HasSuffix(callee.Name(), "Locked") {
		// Convention: *Locked runs under the caller's already-held lock
		// and must not acquire anything itself.
		return
	}
	if callSum, samePkg := w.lo.summaries[callee]; samePkg {
		if !w.emit {
			w.summary.calls = append(w.summary.calls, callSite{callee: callee, held: append([]string(nil), held.order...), pos: call.Pos()})
			return
		}
		for _, k := range sortedKeys(callSum.acquires) {
			for _, h := range held.order {
				// h == k yields a self-edge, reported as a self-deadlock.
				w.lo.addEdge(h, k, call.Pos())
			}
		}
		return
	}
	// Cross-package callee: if the receiver struct carries mutex fields,
	// assume the method may take them. One mutex per shared structure is
	// the repo's style, so this stays precise in practice.
	if w.emit && len(held.order) > 0 {
		for _, k := range mutexFieldKeys(callee) {
			for _, h := range held.order {
				w.lo.addEdge(h, k, call.Pos())
			}
		}
	}
}

// sortedKeys returns the map's keys in sorted order so edge emission —
// and therefore diagnostic order — is deterministic.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// blocking reports a blocking operation performed inside a critical
// section.
func (w *lockOrderWalker) blocking(desc string, pos token.Pos, held *heldSet) {
	if w.report == nil || len(held.order) == 0 {
		return
	}
	w.report.Reportf(pos, "lock-order: %s while holding %s", desc, strings.Join(held.order, ", "))
}

// mutexCall matches <expr>.<mu>.Lock/RLock/Unlock/RUnlock() where <mu> is
// a sync.Mutex/RWMutex field of a named struct, or <var>.Lock() on a
// package-level mutex, and returns the lock key and operation.
func (w *lockOrderWalker) mutexCall(e ast.Expr) (key, op string, pos token.Pos) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", "", token.NoPos
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", token.NoPos
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", token.NoPos
	}
	info := w.lo.pass.TypesInfo
	base := ast.Unparen(sel.X)
	if !isMutexValue(info, base) {
		return "", "", token.NoPos
	}
	return lockKey(info, base), sel.Sel.Name, call.Pos()
}

// isMutexValue reports whether e has type sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexValue(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// lockKey derives the package-qualified lock identity of a mutex
// expression: "pkg.Type.field" for a struct field, "pkg.name" for a
// package-level variable, "" (untracked) otherwise.
func lockKey(info *types.Info, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		field := fieldObjOf(info, x)
		if field == nil {
			return ""
		}
		owner := namedType(info.TypeOf(x.X))
		if owner == nil || owner.Obj() == nil || owner.Obj().Pkg() == nil {
			return ""
		}
		return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + field.Name()
	case *ast.Ident:
		obj, ok := info.Uses[x].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		// Only package-level mutex vars form stable lock classes; locals
		// are per-invocation and cannot participate in a global order.
		if obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return ""
}

// calleeFunc resolves the called function or method object, or nil for
// dynamic calls (interface methods, function values, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if s := info.Selections[fun]; s != nil && s.Kind() == types.MethodVal {
			f, _ := s.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// mutexFieldKeys lists the lock keys of every sync.Mutex/RWMutex field
// on the callee's receiver struct (empty for free functions and mutexless
// receivers). A field that is a same-package struct — or a slice, array
// or pointer of one — carrying its own mutex fields contributes those
// keys too: that is the sharded-container shape (one guard per shard
// held behind an aggregate handle), and the method may take any shard's
// lock.
func mutexFieldKeys(callee *types.Func) []string {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	owner := namedType(sig.Recv().Type())
	if owner == nil || owner.Obj() == nil || owner.Obj().Pkg() == nil {
		return nil
	}
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	pkg := owner.Obj().Pkg()
	seen := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isNamed(f.Type(), "sync", "Mutex") || isNamed(f.Type(), "sync", "RWMutex") {
			seen[pkg.Name()+"."+owner.Obj().Name()+"."+f.Name()] = true
			continue
		}
		inner := namedType(elemStructType(f.Type()))
		if inner == nil || inner.Obj() == nil || inner.Obj().Pkg() != pkg {
			continue
		}
		ist, ok := inner.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < ist.NumFields(); j++ {
			nf := ist.Field(j)
			if isNamed(nf.Type(), "sync", "Mutex") || isNamed(nf.Type(), "sync", "RWMutex") {
				seen[pkg.Name()+"."+inner.Obj().Name()+"."+nf.Name()] = true
			}
		}
	}
	keys := sortedKeys(seen)
	return keys
}

// elemStructType unwraps slices, arrays and pointers (one container
// level, as in "shards []dbShard") down to a candidate element type.
func elemStructType(t types.Type) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		t = u.Elem()
	case *types.Array:
		t = u.Elem()
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// blockingCallDesc classifies calls that can block indefinitely: Wait on
// a WaitGroup, time.Sleep, read/write/accept-class methods on a net
// connection or listener, and Record/RecordBatch dispatched through a
// telemetry sink interface (the concrete sink behind it may be the
// lossless, blocking variant). sync.Cond.Wait is deliberately exempt:
// waiting under the cond's own mutex is the required usage, and the
// atomically-released lock is not held while blocked.
func blockingCallDesc(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if pkgPath := pkgNameOf(info, sel.X); pkgPath != "" {
		if pkgPath == "time" && name == "Sleep" {
			return "time.Sleep"
		}
		return ""
	}
	recv := info.TypeOf(sel.X)
	if recv == nil {
		return ""
	}
	switch name {
	case "Wait":
		if isNamed(recv, "sync", "WaitGroup") {
			return "sync.WaitGroup.Wait"
		}
	case "Record", "RecordBatch":
		if iface, ok := recv.Underlying().(*types.Interface); ok && iface != nil {
			if n := namedType(recv); n != nil && n.Obj() != nil && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Name() == "telemetry" {
				return "telemetry sink " + name + " (dynamic, possibly blocking)"
			}
		}
	}
	if fromNetPackage(recv) && netBlockingMethod[name] {
		return "net I/O (" + name + ")"
	}
	return ""
}

// netBlockingMethod names the net-type methods that actually hit the
// wire and can stall; accessors like Addr, String, LocalAddr and quick
// teardown like Close are not worth a critical-section diagnostic.
var netBlockingMethod = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"Accept": true, "AcceptTCP": true, "Serve": true, "Dial": true,
	"DialContext": true,
}

// fromNetPackage reports whether t is (a pointer to) a type declared in
// package net — a conn, listener, or dialer whose methods hit the wire.
func fromNetPackage(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "net"
}
