// Package analysis is simlint's self-contained static-analysis
// framework: a small go/ast + go/types pass runner in the style of
// golang.org/x/tools/go/analysis, implemented on the standard library
// only so the linter builds offline with zero dependencies.
//
// The suite pins two invariants at the source level — bit-deterministic
// simulation and structured fault propagation — as per-package passes
// over the package loader (load.go). A guard lives here only when it
// catches a mistake no test in the tree does; the audit behind that
// rule, and the dynamic oracle that stands in for each guard deleted
// under it, is the table in docs/STATIC_ANALYSIS.md.
//
// No comment waives a finding. It is fixed in the code, or, for a
// package outside the simulation, its path joins determinismExempt.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named per-package pass.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and by -list.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings on the pass's package via Pass.Reportf.
	Run func(*Pass) error
}

// All is the registry of simlint's analyzers, in report order.
var All = []*Analyzer{Determinism, Faultflow}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers runs each analyzer over each package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// pathIn reports whether pkgPath matches one of the scope suffixes
// ("internal/gpu" matches both "repro/internal/gpu" and a fixture that
// re-creates it).
func pathIn(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// funcFor resolves a call expression's callee as a *types.Func, nil for
// builtins, conversions, and calls through function-typed values.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvNamed returns the name of a method's receiver type (dereferenced),
// "" for non-methods.
func recvNamed(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fromPkg reports whether f is declared in a package whose import path
// is pkgPath or ends in "/"+pkgPath.
func fromPkg(f *types.Func, pkgPath string) bool {
	return f != nil && f.Pkg() != nil &&
		(f.Pkg().Path() == pkgPath || strings.HasSuffix(f.Pkg().Path(), "/"+pkgPath))
}
