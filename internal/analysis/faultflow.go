package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Faultflow flags recover() outside internal/harness: a panic recovered
// anywhere else never reaches the harness's panic-to-fault machinery (stack
// capture, flight-recorder dump, checkpoint exclusion), so a broken cell
// would finish on half a run instead of failing as a SimFault.
var Faultflow = &Analyzer{
	Name: "faultflow",
	Doc:  "flag recover() outside internal/harness",
	Run:  runFaultflow,
}

func runFaultflow(p *Pass) error {
	if !p.Pkg.Fixture && strings.HasSuffix(p.Pkg.Path, "internal/harness") {
		return nil
	}
	info := p.Info()
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
					p.Reportf(call.Pos(), "recover() outside internal/harness: panics must flow through the harness so they become structured SimFault records with stack and diagnostics")
				}
			}
			return true
		})
	}
	return nil
}
