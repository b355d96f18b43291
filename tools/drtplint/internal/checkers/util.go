// Package checkers implements drtplint's domain analyzers. They
// encode repo invariants by *shape*, matching types by package name and
// type name rather than full import path so the same analyzers run
// against both the real tree and self-contained analysistest fixtures.
package checkers

import (
	"go/ast"
	"go/types"

	"github.com/rtcl/drtp/tools/drtplint/internal/analysis"
)

// namedType unwraps t to its named type, looking through pointers and
// aliases; nil when t is not (a pointer to) a named type.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type pkgName.name.
func isNamed(t types.Type, pkgName, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == name
}

// recvIdent returns the receiver identifier of a method declaration, or
// nil for functions and anonymous receivers.
func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}

// recvTypeName returns the bare receiver type name of a method ("" for
// functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// fieldMentions collects the names of receiver fields mentioned anywhere
// in the method body (reads and writes alike).
func fieldMentions(pass *analysis.Pass, fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	recv := recvIdent(fd)
	if recv == nil {
		return out
	}
	robj := pass.TypesInfo.Defs[recv]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if robj != nil && !isIdentFor(pass.TypesInfo, sel.X, robj) {
			return true
		}
		if robj == nil {
			// Degraded mode (type errors): match on receiver name text.
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || id.Name != recv.Name {
				return true
			}
		}
		out[sel.Sel.Name] = true
		return true
	})
	return out
}

// isIdentFor reports whether e (possibly parenthesized) is an identifier
// resolving to obj.
func isIdentFor(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
}

// pkgNameOf resolves a selector base identifier to the imported package it
// names, or "" when it is not a package qualifier.
func pkgNameOf(info *types.Info, e ast.Expr) string {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// fieldObjOf returns the struct-field object a selector expression reads,
// or nil when sel is not a field access.
func fieldObjOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		// Qualified identifiers (pkg.Var) also appear as selectors.
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// funcDecls yields every function declaration with a body in the file.
func funcDecls(file *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}
