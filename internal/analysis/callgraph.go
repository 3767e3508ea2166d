package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is simlint v2's interprocedural engine: a conservative
// static call graph over every loaded package, built from syntax and
// type information alone (no SSA, no x/tools). Program-level analyzers
// use it to propagate findings through helpers — a time.Now or a heap
// allocation one call deep no longer hides from the per-function
// passes.
//
// The graph is conservative by construction (edges over-approximate,
// they never under-approximate within its documented bounds):
//
//   - Static calls (func F, pkg.F, recv.M with a concrete receiver)
//     resolve by symbol: package path + receiver type + name. Symbol
//     keys, not go/types object identity, so resolution works across
//     the export-data package views the offline loader produces.
//   - Interface method calls resolve to every concrete method in the
//     loaded packages with the same name and signature — a superset of
//     the true satisfaction set (a type need not implement the full
//     interface to be included), which errs on the side of reachability.
//   - Calls through function-typed values resolve to every
//     address-taken function, method value, and function literal whose
//     signature matches the call site's.
//
// Soundness bounds (documented in docs/STATIC_ANALYSIS.md): bodies in
// packages outside the load set are opaque (whole-module runs are
// authoritative), reflection and unsafe are invisible, and calls inside
// panic-terminated branches are marked cold so per-cycle analyses can
// ignore invariant-violation paths.

// Program is the whole set of loaded packages plus the lazily built
// call graph — the view RunProgram analyzers receive.
type Program struct {
	// Pkgs are the loaded packages, in load order (sorted by path).
	Pkgs []*Package

	cg *CallGraph
}

// NewProgram wraps the loaded packages; the call graph is built on
// first use.
func NewProgram(pkgs []*Package) *Program { return &Program{Pkgs: pkgs} }

// CallGraph returns the program's call graph, building it once.
func (pr *Program) CallGraph() *CallGraph {
	if pr.cg == nil {
		pr.cg = buildCallGraph(pr.Pkgs)
	}
	return pr.cg
}

// CGNode is one function in the call graph: a declared function or
// method (Decl != nil) or a function literal (Lit != nil).
type CGNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Fn is the declared function's object in its own package's view;
	// nil for literals.
	Fn *types.Func
	// Name is the display name used in diagnostics: "gpu.GPU.cycleLoop",
	// "smcore.newSubCore$1" for the first literal inside newSubCore.
	Name string
	// Out is the node's call edges, in source order (resolved edges
	// appended after static ones, still deterministically).
	Out []CGEdge
}

// Body returns the node's function body.
func (n *CGNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the node's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CGEdge is one call site: From's body calls To at Site.
type CGEdge struct {
	To   *CGNode
	Site token.Pos
	// Cold marks a call site inside a panic-terminated branch — a cold
	// invariant check, excluded from hot-path traversal.
	Cold bool
}

// CallGraph is the program-wide graph. Nodes is deterministic: package
// load order, then source position.
type CallGraph struct {
	Nodes []*CGNode

	bySym  map[string]*CGNode
	byDecl map[*ast.FuncDecl]*CGNode
	byLit  map[*ast.FuncLit]*CGNode
}

// FuncNode resolves a function object (from any package's view) to its
// node, nil when its body is not in the loaded packages.
func (g *CallGraph) FuncNode(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.bySym[symKey(fn)]
}

// DeclNode returns the node for a declared function, nil if it has no
// body.
func (g *CallGraph) DeclNode(fd *ast.FuncDecl) *CGNode { return g.byDecl[fd] }

// LitNode returns the node for a function literal.
func (g *CallGraph) LitNode(fl *ast.FuncLit) *CGNode { return g.byLit[fl] }

// symKey names a declared function uniquely across the program:
// "pkgpath|RecvType|Name". Go has no overloading, so this is exact.
func symKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + "|" + recvNamed(fn) + "|" + fn.Name()
}

// sigKey renders a signature (receiver dropped, parameter names
// stripped) with full package paths, so structurally identical
// signatures compare equal across package views — and across
// declarations that differ only in parameter naming, like a field
// typed func(int) int holding a function declared func(n int) int.
func sigKey(sig *types.Signature) string {
	q := func(p *types.Package) string {
		if p == nil {
			return ""
		}
		return p.Path()
	}
	strip := func(t *types.Tuple) *types.Tuple {
		if t == nil || t.Len() == 0 {
			return t
		}
		vars := make([]*types.Var, t.Len())
		for i := 0; i < t.Len(); i++ {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, strip(sig.Params()), strip(sig.Results()), sig.Variadic())
	return types.TypeString(bare, q)
}

// pkgBase is the display prefix for node names.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ifaceSite is an unresolved interface-method call or method-value use.
type ifaceSite struct {
	from *CGNode // nil for a method value taken without a call
	key  string  // method name + "|" + receiver-less sigKey
	site token.Pos
	cold bool
}

// dynSite is an unresolved call through a function-typed value.
type dynSite struct {
	from *CGNode
	key  string // sigKey of the call site
	site token.Pos
	cold bool
}

type cgBuilder struct {
	g          *CallGraph
	ifaceCalls []ifaceSite
	ifaceTaken []string // method name|sig keys whose implementations are address-taken
	dynCalls   []dynSite
	// taken maps sigKey -> address-taken nodes with that (receiver-less)
	// signature, in deterministic discovery order.
	taken     map[string][]*CGNode
	takenSeen map[*CGNode]map[string]bool
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	b := &cgBuilder{
		g: &CallGraph{
			bySym:  map[string]*CGNode{},
			byDecl: map[*ast.FuncDecl]*CGNode{},
			byLit:  map[*ast.FuncLit]*CGNode{},
		},
		taken:     map[string][]*CGNode{},
		takenSeen: map[*CGNode]map[string]bool{},
	}
	for _, pkg := range pkgs {
		b.addNodes(pkg)
	}
	for _, n := range b.g.Nodes {
		b.scanBody(n)
	}
	b.resolve()
	return b.g
}

// addNodes creates a node per function declaration and per function
// literal of the package, in source order.
func (b *cgBuilder) addNodes(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			name := pkgBase(pkg.Path) + "."
			if r := recvNamed(fn); r != "" {
				name += r + "."
			}
			name += fn.Name()
			n := &CGNode{Pkg: pkg, Decl: fd, Fn: fn, Name: name}
			b.g.Nodes = append(b.g.Nodes, n)
			b.g.bySym[symKey(fn)] = n
			b.g.byDecl[fd] = n
			b.addLits(pkg, fd.Body, name)
		}
		// Literals in package-level variable initializers.
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				b.addLits(pkg, gd, pkgBase(pkg.Path)+".init")
			}
		}
	}
}

// addLits registers every function literal under root as its own node,
// named parent$1, parent$2, ... in source order (nested literals count
// their own children from $1 again, qualified by the parent literal's
// name).
func (b *cgBuilder) addLits(pkg *Package, root ast.Node, parent string) {
	counts := map[string]int{}
	names := map[*ast.FuncLit]string{}
	var enclosing []*ast.FuncLit
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			// ast.Inspect visits parents before children, so the nearest
			// enclosing literal (if any) is already named.
			p := parent
			for i := len(enclosing) - 1; i >= 0; i-- {
				if enclosing[i].Body.Pos() <= fl.Pos() && fl.End() <= enclosing[i].Body.End() {
					p = names[enclosing[i]]
					break
				}
			}
			counts[p]++
			name := p + "$" + itoa(counts[p])
			names[fl] = name
			node := &CGNode{Pkg: pkg, Lit: fl, Name: name}
			b.g.Nodes = append(b.g.Nodes, node)
			b.g.byLit[fl] = node
			enclosing = append(enclosing, fl)
		}
		return true
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// coldBlocks marks every block that is a panic-terminated if-body —
// calls inside them are invariant checks, not per-cycle work.
func coldBlocks(info *types.Info, body ast.Node) map[*ast.BlockStmt]bool {
	cold := map[*ast.BlockStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && endsInPanic(info, ifs.Body) {
			cold[ifs.Body] = true
		}
		return true
	})
	return cold
}

// scanBody walks one node's body (not descending into nested literals,
// which are their own nodes) collecting call edges, interface call
// sites, dynamic call sites, and address-taken functions.
func (b *cgBuilder) scanBody(n *CGNode) {
	info := n.Pkg.Info
	body := n.Body()
	if body == nil {
		return
	}
	cold := coldBlocks(info, body)
	coldDepth := 0
	directCalled := map[*ast.FuncLit]bool{}
	var stack []ast.Node
	ast.Inspect(body, func(x ast.Node) bool {
		if x == nil {
			last := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if bs, ok := last.(*ast.BlockStmt); ok && cold[bs] {
				coldDepth--
			}
			return true
		}
		stack = append(stack, x)
		if bs, ok := x.(*ast.BlockStmt); ok && cold[bs] {
			coldDepth++
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			// Creating a literal is not a call; the literal's own body is
			// scanned as its own node. Un-called literals are address-taken
			// values dynamically matched by signature.
			if !directCalled[x] {
				if sig, ok := info.TypeOf(x).(*types.Signature); ok {
					b.take(b.g.byLit[x], sigKey(sig))
				}
			}
			// Pruned subtrees get no closing nil from Inspect; pop now.
			stack = stack[:len(stack)-1]
			return false
		case *ast.CallExpr:
			b.scanCall(n, info, x, coldDepth > 0, directCalled)
		case *ast.SelectorExpr:
			b.scanSelector(n, info, x, parentOf(stack))
		case *ast.Ident:
			b.scanIdent(info, x, parentOf(stack))
		}
		return true
	})
}

// parentOf returns the node above the current one (stack top is the
// current node itself).
func parentOf(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

func (b *cgBuilder) scanCall(n *CGNode, info *types.Info, call *ast.CallExpr, isCold bool, directCalled map[*ast.FuncLit]bool) {
	fun := ast.Unparen(call.Fun)
	if fl, ok := fun.(*ast.FuncLit); ok {
		directCalled[fl] = true
		if to := b.g.byLit[fl]; to != nil {
			n.Out = append(n.Out, CGEdge{To: to, Site: call.Pos(), Cold: isCold})
		}
		return
	}
	if fn := funcFor(info, call); fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			b.ifaceCalls = append(b.ifaceCalls, ifaceSite{
				from: n, key: fn.Name() + "|" + sigKey(sig), site: call.Pos(), cold: isCold,
			})
			return
		}
		if to := b.g.bySym[symKey(fn)]; to != nil {
			n.Out = append(n.Out, CGEdge{To: to, Site: call.Pos(), Cold: isCold})
		}
		return
	}
	// Not a named callee: builtin, conversion, or a call through a
	// function-typed value.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		b.dynCalls = append(b.dynCalls, dynSite{from: n, key: sigKey(sig), site: call.Pos(), cold: isCold})
	}
}

// scanSelector records method values and package-qualified function
// references that are used as values (address-taken), the feed for
// dynamic-call resolution.
func (b *cgBuilder) scanSelector(n *CGNode, info *types.Info, sel *ast.SelectorExpr, parent ast.Node) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if call, ok := parent.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
		return // a call, handled by scanCall
	}
	valSig, ok := info.TypeOf(sel).(*types.Signature)
	if !ok {
		return
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		if mSig, ok := fn.Type().(*types.Signature); ok && mSig.Recv() != nil && types.IsInterface(mSig.Recv().Type()) {
			// iface.M taken as a value: every implementation escapes.
			b.ifaceTaken = append(b.ifaceTaken, fn.Name()+"|"+sigKey(mSig))
			return
		}
	}
	// Concrete method value, method expression, or pkg.F reference: the
	// value's own signature is what a dynamic call site would match.
	if node := b.g.bySym[symKey(fn)]; node != nil {
		b.take(node, sigKey(valSig))
	}
}

// scanIdent records bare function references used as values.
func (b *cgBuilder) scanIdent(info *types.Info, id *ast.Ident, parent ast.Node) {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == id {
			return
		}
	case *ast.SelectorExpr:
		if p.Sel == id {
			return // handled by scanSelector
		}
	}
	if node := b.g.bySym[symKey(fn)]; node != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			b.take(node, sigKey(sig))
		}
	}
}

func (b *cgBuilder) take(n *CGNode, key string) {
	if n == nil {
		return
	}
	seen := b.takenSeen[n]
	if seen == nil {
		seen = map[string]bool{}
		b.takenSeen[n] = seen
	}
	if seen[key] {
		return
	}
	seen[key] = true
	b.taken[key] = append(b.taken[key], n)
}

// resolve turns the collected interface and dynamic call sites into
// edges against name+signature indexes over the whole node set.
func (b *cgBuilder) resolve() {
	// Concrete methods indexed by name + receiver-less signature: the
	// candidate set for interface dispatch.
	implIndex := map[string][]*CGNode{}
	for _, n := range b.g.Nodes {
		if n.Fn == nil {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
			continue
		}
		key := n.Fn.Name() + "|" + sigKey(sig)
		implIndex[key] = append(implIndex[key], n)
	}
	for _, site := range b.ifaceCalls {
		for _, impl := range implIndex[site.key] {
			site.from.Out = append(site.from.Out, CGEdge{To: impl, Site: site.site, Cold: site.cold})
		}
	}
	for _, key := range b.ifaceTaken {
		for _, impl := range implIndex[key] {
			if sig, ok := impl.Fn.Type().(*types.Signature); ok {
				b.take(impl, sigKey(sig))
			}
		}
	}
	for _, site := range b.dynCalls {
		for _, target := range b.taken[site.key] {
			site.from.Out = append(site.from.Out, CGEdge{To: target, Site: site.site, Cold: site.cold})
		}
	}
}

// ReachOpts tunes a reachability traversal.
type ReachOpts struct {
	// MaxDepth bounds the traversal (edges from a root); 0 = unbounded.
	MaxDepth int
	// SkipColdEdges ignores call sites inside panic-terminated branches.
	SkipColdEdges bool
	// Skip, when non-nil, prunes edges into nodes for which it returns
	// true (the node is neither reported nor expanded).
	Skip func(*CGNode) bool
}

// ReachStep records how a node was first reached: its BFS predecessor
// and depth. Roots have Prev == nil and Depth == 0.
type ReachStep struct {
	Prev  *CGNode
	Depth int
}

// Reach runs a multi-source BFS from roots and returns the
// first-discovery tree. Deterministic: roots in the given order, edges
// in source/resolution order.
func (g *CallGraph) Reach(roots []*CGNode, opt ReachOpts) map[*CGNode]*ReachStep {
	reach := map[*CGNode]*ReachStep{}
	var queue []*CGNode
	for _, r := range roots {
		if r == nil || reach[r] != nil {
			continue
		}
		reach[r] = &ReachStep{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		step := reach[n]
		if opt.MaxDepth > 0 && step.Depth >= opt.MaxDepth {
			continue
		}
		for _, e := range n.Out {
			if e.Cold && opt.SkipColdEdges {
				continue
			}
			if reach[e.To] != nil {
				continue
			}
			if opt.Skip != nil && opt.Skip(e.To) {
				continue
			}
			reach[e.To] = &ReachStep{Prev: n, Depth: step.Depth + 1}
			queue = append(queue, e.To)
		}
	}
	return reach
}

// Chain renders the discovery path to n as "root → a → b → n".
func Chain(reach map[*CGNode]*ReachStep, n *CGNode) string {
	var parts []string
	for cur := n; cur != nil; {
		parts = append(parts, cur.Name)
		step := reach[cur]
		if step == nil {
			break
		}
		cur = step.Prev
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}
