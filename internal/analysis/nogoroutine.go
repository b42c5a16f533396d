package analysis

import (
	"go/ast"
	"go/types"
)

// NoGoroutine forbids Go concurrency in simulation code, the engine
// included. Processes are iter.Pull coroutines in strict hand-off with
// the engine (at most one of them runs at any moment, and control moves
// only where a process yields), which is what makes the simulation
// deterministic; a stray `go` statement or channel operation introduces
// scheduler-dependent interleavings that no test will reliably catch.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid go statements and raw channel operations",
	Run:  runNoGoroutine,
}

func runNoGoroutine(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement: spawn a sim.Process to keep the engine's strict hand-off")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send: use sim.Queue or sim.Signal")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement: use sim.Signal waits")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(),
						"channel receive: use sim.Queue or sim.Signal")
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(),
							"range over channel: use sim.Queue")
					}
				}
			case *ast.CallExpr:
				fun, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if b, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "close":
						pass.Reportf(n.Pos(), "close of channel: use sim.Queue or sim.Signal")
					case "make":
						if len(n.Args) > 0 {
							if t := info.TypeOf(n.Args[0]); t != nil {
								if _, isChan := t.Underlying().(*types.Chan); isChan {
									pass.Reportf(n.Pos(), "channel creation: use sim.Queue or sim.Signal")
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}
