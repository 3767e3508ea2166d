package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Nexteventguard is the static half of the idle-cycle fast-forward
// contract (docs/ARCHITECTURE.md): skipping from cycle c to
// NextEvent(c) is sound only if ticking every skipped cycle would have
// been a no-op, which in turn requires NextEvent to consult every piece
// of mutable state the Tick path's behavior depends on. The dynamic
// side — the fast-forward equivalence tests and the invariant auditor —
// catches violations a workload happens to drive; this analyzer pins
// the contract for every field.
//
// Concretely: for every type with both a Tick and a NextEvent method,
// the analyzer computes the call-graph reachability of each side. A
// field of a //snapshot:state struct that the Tick side both reads and
// mutates, but that no NextEvent-side code ever reads, is a fast-
// forward soundness hole: the field evolves during ticking, influences
// Tick's behavior, and is invisible to the quiescence decision.
//
// Soundness bound: fields the Tick path reads but never writes are not
// flagged — they are constant across any quiescent span, so their
// influence is subsumed by the mutable fields NextEvent does consult.
// (Writes through composite literals and whole-struct assignment are
// not attributed to individual fields; the write detector sees selector
// assignments, compound assignments, ++/--, pointer-receiver method
// calls on a field, and &field escapes.) Justified exemptions use
// //simlint:allow nexteventguard on the field's declaration line, with
// the soundness argument as the reason.
var Nexteventguard = &Analyzer{
	Name: "nexteventguard",
	Doc: "flag //snapshot:state struct fields that Tick-reachable code " +
		"reads and mutates but that no NextEvent-reachable code consults " +
		"— state invisible to the fast-forward quiescence contract",
	RunProgram: runNexteventguard,
}

// stateField identifies one field of a //snapshot:state struct by
// name, across package views.
type stateField struct {
	owner string // pkgPath + "." + structName
	field string
}

// stateFieldDecl locates one declared field of a //snapshot:state
// struct.
type stateFieldDecl struct {
	pkg   *Package
	pos   token.Pos
	owner string // display name: the struct's name
}

// collectStateFields gathers every field of every //snapshot:state
// struct across the program, in declaration order.
//
//simlint:cold -- runs once per lint invocation; "collect" here is not the per-cycle pipeline stage
func collectStateFields(prog *Program) (map[stateField]*stateFieldDecl, []stateField) {
	fields := map[stateField]*stateFieldDecl{}
	var order []stateField
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !(hasStateMarker(gd.Doc) || hasStateMarker(ts.Doc)) {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							sf := stateField{owner: pkg.Path + "." + ts.Name.Name, field: id.Name}
							fields[sf] = &stateFieldDecl{pkg: pkg, pos: id.Pos(), owner: ts.Name.Name}
							order = append(order, sf)
						}
					}
				}
			}
		}
	}
	return fields, order
}

func runNexteventguard(pp *ProgramPass) error {
	g := pp.Prog.CallGraph()

	// Tick roots: Tick methods of types that also have NextEvent.
	// NextEvent roots: every NextEvent method (types like mem.Hierarchy
	// have no Tick — they are analytic — but their NextEvent still
	// counts as consultation).
	methods := map[string]map[string]*CGNode{} // pkgPath.Recv -> method name -> node
	for _, n := range g.Nodes {
		if n.Fn == nil {
			continue
		}
		recv := recvNamed(n.Fn)
		if recv == "" {
			continue
		}
		key := n.Pkg.Path + "." + recv
		if methods[key] == nil {
			methods[key] = map[string]*CGNode{}
		}
		methods[key][n.Fn.Name()] = n
	}
	var tickRoots, neRoots []*CGNode
	for _, n := range g.Nodes { // iterate Nodes for deterministic order
		if n.Fn == nil {
			continue
		}
		recv := recvNamed(n.Fn)
		if recv == "" {
			continue
		}
		byName := methods[n.Pkg.Path+"."+recv]
		switch n.Fn.Name() {
		case "Tick", "tick":
			if byName["NextEvent"] != nil || byName["nextEvent"] != nil {
				tickRoots = append(tickRoots, n)
			}
		case "NextEvent", "nextEvent":
			neRoots = append(neRoots, n)
		}
	}
	if len(tickRoots) == 0 {
		return nil // no Tick/NextEvent pair anywhere: nothing to guard
	}

	// Snapshot-state structs and their fields, program-wide.
	fields, order := collectStateFields(pp.Prog)
	if len(fields) == 0 {
		return nil
	}

	tickReach := g.Reach(tickRoots, ReachOpts{})
	neReach := g.Reach(neRoots, ReachOpts{})

	tickRead := map[stateField]bool{}
	tickWrite := map[stateField]bool{}
	neRead := map[stateField]bool{}
	for _, n := range g.Nodes {
		inTick := tickReach[n] != nil
		inNE := neReach[n] != nil
		if !inTick && !inNE {
			continue
		}
		scanFieldAccesses(n, func(sf stateField, write bool) {
			if _, tracked := fields[sf]; !tracked {
				return
			}
			if inTick {
				if write {
					tickWrite[sf] = true
				} else {
					tickRead[sf] = true
				}
			}
			if inNE && !write {
				neRead[sf] = true
			}
		})
	}

	for _, sf := range order {
		if tickRead[sf] && tickWrite[sf] && !neRead[sf] {
			fi := fields[sf]
			pp.Reportf(fi.pkg, fi.pos, "field %s.%s is read and mutated on the Tick path but never consulted by any NextEvent — fast-forward may skip a cycle whose behavior depends on it; consult it (or a quiescence helper that reads it) from a NextEvent, or justify with //simlint:allow nexteventguard", fi.owner, sf.field)
		}
	}
	return nil
}

// scanFieldAccesses walks one node's body and reports every
// //snapshot:state-relevant field selection as a read and/or write.
// A compound assignment or ++/-- is both; plain `=` is a write only;
// &field and a pointer-receiver method call on the field are
// conservatively both.
func scanFieldAccesses(n *CGNode, emit func(sf stateField, write bool)) {
	info := n.Pkg.Info
	body := n.Body()
	if body == nil {
		return
	}
	var stack []ast.Node
	ast.Inspect(body, func(x ast.Node) bool {
		if x == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, x)
		if fl, ok := x.(*ast.FuncLit); ok && ast.Node(fl) != body {
			// Nested literals are their own nodes with their own reach entry.
			stack = stack[:len(stack)-1]
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sf, ok := stateFieldOf(info, sel)
		if !ok {
			return true
		}
		read, write := classifyAccess(info, stack, sel)
		if read {
			emit(sf, false)
		}
		if write {
			emit(sf, true)
		}
		return true
	})
}

// hasStateMarker reports whether the comment group contains a
// //snapshot:state directive line.
func hasStateMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//snapshot:state") {
			return true
		}
	}
	return false
}

// stateFieldOf resolves a selector to (owner struct, field) when it is
// a struct field selection on a named type.
func stateFieldOf(info *types.Info, sel *ast.SelectorExpr) (stateField, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return stateField{}, false
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
				return stateField{}, false
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
		return stateField{}, false
	}
	return stateField{
		owner: named.Obj().Pkg().Path() + "." + named.Obj().Name(),
		field: sel.Sel.Name,
	}, true
}

// classifyAccess decides whether the selector (stack top) is read,
// written, or both, from its ancestors.
func classifyAccess(info *types.Info, stack []ast.Node, sel *ast.SelectorExpr) (read, write bool) {
	// Climb through wrappers that keep the lvalue the "same place":
	// indexing, parens, and further field selection keep us looking for
	// the assignment/incdec/unary parent of the outermost lvalue
	// expression rooted at sel.
	cur := ast.Node(sel)
	for i := len(stack) - 2; i >= 0; i-- {
		parent := stack[i]
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.IndexExpr:
			if p.X == cur {
				cur = parent
				continue
			}
			return true, false // sel is the index expression: a read
		case *ast.SelectorExpr:
			// sel.X side of a deeper selection: reading the field to reach
			// a subfield or method. A pointer-receiver method call on the
			// field can mutate it; conservatively a write too.
			if p.X == cur {
				if fn, ok := info.Uses[p.Sel].(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
							return true, true
						}
					}
				}
				return true, false
			}
			return true, false
		case *ast.UnaryExpr:
			if p.Op == token.AND && p.X == cur {
				return true, true // address escapes: conservatively both
			}
			return true, false
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == cur {
					if p.Tok == token.ASSIGN {
						return false, true
					}
					return true, true // +=, -=, ...
				}
			}
			return true, false
		case *ast.IncDecStmt:
			if p.X == cur {
				return true, true
			}
			return true, false
		default:
			return true, false
		}
	}
	return true, false
}
