package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismExempt names the packages under repro/internal/ that are
// outside the rule: the harness, metrics and bench layers read the wall
// clock by design (timeouts, pacing, telemetry, host-speed fields — none
// of it reaches simulated state, which the resume and checkpoint identity
// tests prove), plot only renders, and the linter is not simulator code.
var determinismExempt = []string{
	"internal/harness",
	"internal/metrics",
	"internal/bench",
	"internal/plot",
	"internal/analysis",
}

// determinismInScope reports whether a package's lines are scanned: every
// other package under repro/internal/ — the simulator, its statistics,
// workloads and experiment tables, whose output must be byte-identical
// across runs — and any fixture.
func determinismInScope(p *Package) bool {
	if p.Fixture {
		return true
	}
	return strings.HasPrefix(p.Path, "repro/internal/") && !pathIn(p.Path, determinismExempt)
}

// Determinism flags the three classic sources of run-to-run divergence
// in simulation and aggregation code: unordered map iteration, wall
// clock reads, and the process-global math/rand stream (whose sequence
// depends on whatever else consumed it). Seeded *rand.Rand instances
// (rand.New(rand.NewSource(seed))) are the sanctioned alternative.
// TestDeterminism and the identity tests are the dynamic side of the
// contract; the analyzer covers the lines no test runs twice.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag map iteration, time.Now/Since, and global math/rand use in " +
		"packages whose output must be bit-deterministic across identical runs",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) error {
	if !determinismInScope(p.Pkg) {
		return nil
	}
	info := p.Info()
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					p.Reportf(n.Pos(), "range over %s: map iteration order is nondeterministic and this package feeds simulation state or exported results; iterate sorted keys instead",
						types.TypeString(t, types.RelativeTo(p.Pkg.Types)))
				}
			case *ast.CallExpr:
				fn := funcFor(info, n)
				if fn == nil {
					return true
				}
				switch {
				case fromPkg(fn, "time") && (fn.Name() == "Now" || fn.Name() == "Since"):
					p.Reportf(n.Pos(), "time.%s: wall-clock reads diverge between identical runs and this package feeds simulation state or exported results; derive timing from simulated cycles", fn.Name())
				case fromPkg(fn, "math/rand") || fromPkg(fn, "math/rand/v2"):
					if recvNamed(fn) != "" {
						return true // methods on a seeded *rand.Rand are fine
					}
					if fn.Name() == "New" || fn.Name() == "NewSource" {
						return true // constructing a seeded stream
					}
					p.Reportf(n.Pos(), "global math/rand.%s: the shared stream's sequence depends on unrelated consumers and this package feeds simulation state or exported results; use a seeded rand.New(rand.NewSource(seed))", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
