package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Configfreeze pins the configuration-immutability contract snapshot
// identity rests on: a snapshot frame is only resumable into a GPU
// built from the *same* config (gpu.WriteSnapshot embeds it; Restore
// rejects mismatches), and the auditor, fast-forward, and CPI
// accounting all assume the config a component captured at
// construction never changes underneath it. So config values may be
// built up freely *before* construction — `cfg := config.VoltaV100();
// cfg.NumSMs = 4` in a main, a With* option method mutating its value
// receiver — but once a pointer into a live config exists, every write
// through it is a frozen-state violation.
//
// The rule, statically: a write to a field of a config-package struct
// (any named struct declared in a package whose base name is "config")
// is allowed only when it goes directly through a function-local,
// non-pointer config value — Go's value semantics make such writes
// invisible to everyone else. Flagged forms:
//
//   - writes through a *config.GPU pointer (p.NumSMs = 4): the pointee
//     is shared state — smcore holds &g.cfg for the simulation's
//     lifetime;
//   - writes into a config embedded in another struct (g.cfg.Audit =
//     true): that is the live copy components read;
//   - writes to package-level config values: shared by definition;
//   - whole-struct replacement of an embedded or pointed-to config
//     (d.cfg = other, *p = other).
//
// Functions declared in config packages themselves and constructors
// (New*/new*) are exempt — they run before the config is live.
var Configfreeze = &Analyzer{
	Name: "configfreeze",
	Doc: "flag writes into config-package structs after construction — " +
		"through pointers, into configs embedded in live state, or to " +
		"package-level config values; config is frozen once gpu.New " +
		"copies it, and snapshot/resume identity depends on that",
	Run: runConfigfreeze,
}

// configNamed returns the named config-package struct type behind t
// (derefencing one pointer level), nil when t is not one.
func configNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	path := n.Obj().Pkg().Path()
	if path == "config" || strings.HasSuffix(path, "/config") {
		return n
	}
	return nil
}

// configPkg reports whether the package's base name is "config" — its
// own declarations (constructors, option methods, Validate) may write
// config fields.
func configPkg(path string) bool {
	return path == "config" || strings.HasSuffix(path, "/config")
}

// configExemptFunc reports whether writes inside the declaration are
// construction-time by role: constructors build the config before it
// is live.
func configExemptFunc(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// localConfigValue reports whether e is a plain identifier denoting a
// function-local (or parameter/receiver), non-field variable holding a
// config struct *by value* — the one write target Go's value
// semantics make private.
func localConfigValue(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if _, isPtr := v.Type().(*types.Pointer); isPtr {
		return false
	}
	if configNamed(v.Type()) == nil {
		return false
	}
	// Package-level variables have the package scope as parent.
	return v.Pkg() == nil || v.Parent() != v.Pkg().Scope()
}

func runConfigfreeze(p *Pass) error {
	if configPkg(p.Pkg.Path) {
		return nil // the type's own package: constructors and options live here
	}
	info := p.Info()
	checkFieldWrite := func(sel *ast.SelectorExpr, verb string) {
		sf, ok := structFieldOf(info, sel)
		if !ok || !configPkg(sf.owner[:strings.LastIndexByte(sf.owner, '.')]) {
			return
		}
		if localConfigValue(info, sel.X) {
			return // building a private value copy: pre-construction idiom
		}
		short := sf.owner[strings.LastIndexByte(sf.owner, '.')+1:]
		p.Reportf(sel.Sel.Pos(),
			"config field %s.%s %s outside a constructor/option func — config is frozen after construction (snapshot/resume identity and every component's captured view depend on it); build the value before gpu.New or add an option method in the config package, or justify with //simlint:allow configfreeze",
			short, sf.field, verb)
	}
	for _, f := range p.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || configExemptFunc(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						return true // := declares fresh locals, never writes shared state
					}
					for _, lhs := range n.Lhs {
						l := ast.Unparen(lhs)
						if sel, ok := l.(*ast.SelectorExpr); ok {
							checkFieldWrite(sel, "written")
							// Whole-struct replacement of an embedded config
							// (d.cfg = other) — the field's owner is not a
							// config struct, so checkFieldWrite won't see it.
							if sf, ok := structFieldOf(info, sel); ok &&
								!configPkg(sf.owner[:strings.LastIndexByte(sf.owner, '.')]) &&
								configNamed(info.TypeOf(sel)) != nil {
								p.Reportf(sel.Sel.Pos(),
									"whole config value %s.%s replaced outside a constructor/option func — every component captured the original at construction and snapshot/resume identity depends on it; construct a new GPU instead, or justify with //simlint:allow configfreeze",
									sf.owner[strings.LastIndexByte(sf.owner, '.')+1:], sf.field)
							}
							continue
						}
						if st, ok := l.(*ast.StarExpr); ok && configNamed(info.TypeOf(st.X)) != nil {
							p.Reportf(st.Pos(),
								"config value replaced through a pointer outside a constructor/option func — the pointee is the live, frozen config; construct a new GPU instead, or justify with //simlint:allow configfreeze")
							continue
						}
						// Package-level config value reassigned wholesale.
						if id, ok := l.(*ast.Ident); ok && configNamed(info.TypeOf(id)) != nil && !localConfigValue(info, id) {
							p.Reportf(id.Pos(),
								"package-level config value %s replaced outside a constructor/option func — it is shared by everything that captured it; build configs as function-local values, or justify with //simlint:allow configfreeze", id.Name)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						checkFieldWrite(sel, "incremented")
					}
				}
				return true
			})
		}
	}
	return nil
}

// structField identifies one field of a named struct across package
// views.
type structField struct {
	owner string // pkgPath + "." + structName
	field string
}

// structFieldOf resolves a selector to (owner struct, field) when it is
// a struct field selection on a named type.
func structFieldOf(info *types.Info, sel *ast.SelectorExpr) (structField, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return structField{}, false
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	// Deep selections (a.b.c) attribute the field to the type that
	// actually declares it.
	if len(s.Index()) > 1 {
		// Walk the embedding chain: Recv -> field path. Only the final
		// field matters; its direct owner is the struct containing it.
		t := recv
		idx := s.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return structField{}, false
			}
			ft := st.Field(i).Type()
			if p, ok := ft.Underlying().(*types.Pointer); ok {
				ft = p.Elem()
			}
			t = ft
		}
		recv = t
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return structField{}, false
	}
	return structField{
		owner: named.Obj().Pkg().Path() + "." + named.Obj().Name(),
		field: sel.Sel.Name,
	}, true
}
