package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Loc is one abstract mutable location: a package-level variable or a
// struct field, identified by its types object. It is field-sensitive
// but instance-insensitive: a write to d.eps[i].Credits is the field
// dtu.epState.Credits, whichever epState (or DTU) it hits. The taint
// engine keys global taint by Loc; capflow names the fields it guards
// by it.
type Loc struct {
	// Var is the variable or field object.
	Var *types.Var
	// Field is true for struct fields, false for package-level vars.
	Field bool
}

// String returns the stable identity used in diagnostics:
// "pkg/path.VarName" or "pkg/path.Type.Field".
func (l Loc) String() string {
	v := l.Var
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	if !l.Field {
		return fmt.Sprintf("%s.%s", pkg, v.Name())
	}
	if owner := fieldOwner(v); owner != "" {
		return fmt.Sprintf("%s.%s.%s", pkg, owner, v.Name())
	}
	return fmt.Sprintf("%s.(struct).%s", pkg, v.Name())
}

// fieldOwnersCache maps each field object of a module to the name of the
// named struct type declaring it; filled by registerFieldOwners.
var fieldOwnersCache = map[*types.Var]string{}

func fieldOwner(v *types.Var) string { return fieldOwnersCache[v] }

// registerFieldOwners fills the field→owning-type map for the loaded
// packages.
func registerFieldOwners(pkgs []*Package) {
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fieldOwnersCache[st.Field(i)] = tn.Name()
			}
		}
	}
}

// locOf resolves an assignable expression to an abstract location:
// package-level var, or struct field (through any number of
// selectors/indexes/stars). Locals and parameters return ok=false.
func locOf(info *types.Info, expr ast.Expr) (Loc, bool) {
	switch expr := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[expr].(*types.Var); ok && isPackageLevel(v) {
			return Loc{Var: v}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[expr]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return Loc{Var: v, Field: true}, true
			}
		}
		// Package-qualified var: pkg.V
		if v, ok := info.Uses[expr.Sel].(*types.Var); ok && isPackageLevel(v) {
			return Loc{Var: v}, true
		}
	case *ast.IndexExpr:
		// m[k] = v mutates whatever m is: attribute to m's location.
		return locOf(info, expr.X)
	case *ast.StarExpr:
		return locOf(info, expr.X)
	}
	return Loc{}, false
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	if v.Pkg() == nil || v.IsField() {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}
